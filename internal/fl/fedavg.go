package fl

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// TrainConfig controls the FedAvg orchestration.
type TrainConfig struct {
	// Rounds of server aggregation. Default 4.
	Rounds int
	// LocalEpochs each client trains per round. Default 15.
	LocalEpochs int
	// Model is the shared logical-network configuration (Epochs inside is
	// ignored; LocalEpochs governs training length).
	Model nn.Config
	// Parallel trains clients of one round concurrently. FedAvg semantics
	// are identical either way; this is a wall-clock optimization.
	Parallel bool
	// ClientFraction samples a subset of clients each round (FedAvg's C
	// parameter). 0 or >= 1 means every client participates every round.
	ClientFraction float64
	// SecureAgg aggregates client updates through pairwise additive masking
	// (see secagg.go): the server only ever sees masked uploads whose masks
	// cancel in the sum. Results match plain aggregation to float rounding.
	SecureAgg bool
	// Seed drives client sampling and mask derivation.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 15
	}
	return c
}

// Trainer runs FedAvg over participants using a fixed encoder (the
// federation-agreed predicate encoding). It caches each participant's
// encoded data by pointer identity, so repeated coalition training (the
// baselines' hot loop) does not re-encode. Trainer is safe for concurrent
// use: its only mutable state is this cache, which deduplicates in-flight
// encodes (two goroutines training coalitions that share a participant
// encode it once; the second waits), and a counter. State shared across
// Train calls beyond that lives in a caller-owned FirstRoundMemo passed to
// TrainMemo.
type Trainer struct {
	enc *dataset.Encoder
	cfg TrainConfig

	mu    sync.Mutex
	cache map[*Participant]*encodeEntry
	// encodes counts distinct EncodeTable executions; tests pin it to the
	// participant count to prove the in-flight dedup works.
	encodes atomic.Int64
	// localTrains counts local client trainings (one per selected client
	// per round, minus those a FirstRoundMemo served); tests pin it to prove
	// the memo trains each participant's first round once.
	localTrains atomic.Int64
}

type encoded struct {
	x [][]float64
	y []int
}

// encodeEntry is one participant's encode slot: the sync.Once is the
// in-flight dedup (first goroutine encodes, concurrent ones block until the
// result is published).
type encodeEntry struct {
	once sync.Once
	e    encoded
}

// NewTrainer creates a FedAvg trainer bound to an encoder.
func NewTrainer(enc *dataset.Encoder, cfg TrainConfig) *Trainer {
	return &Trainer{enc: enc, cfg: cfg.withDefaults(), cache: make(map[*Participant]*encodeEntry)}
}

// Encoder returns the federation's shared encoder.
func (tr *Trainer) Encoder() *dataset.Encoder { return tr.enc }

// Config returns the training configuration in effect.
func (tr *Trainer) Config() TrainConfig { return tr.cfg }

// LocalTrains reports the local client trainings run so far, over every
// Train call on this trainer.
func (tr *Trainer) LocalTrains() int64 { return tr.localTrains.Load() }

// encodedData returns (and caches) the encoded form of p's local data.
// Concurrent callers for the same participant encode once: the entry is
// claimed under the lock, the (expensive) encode runs outside it, and
// late arrivals block in once.Do until the result is published.
func (tr *Trainer) encodedData(p *Participant) encoded {
	tr.mu.Lock()
	ent, ok := tr.cache[p]
	if !ok {
		ent = &encodeEntry{}
		tr.cache[p] = ent
	}
	tr.mu.Unlock()
	ent.once.Do(func() {
		x, y := tr.enc.EncodeTable(p.Data)
		ent.e = encoded{x: x, y: y}
		tr.encodes.Add(1)
	})
	return ent.e
}

// FirstRoundMemo shares each participant's round-0 local update across
// every FedAvg run that includes it. Round 0 of any run starts from the
// same seeded nn.New model (it depends only on the encoder width and
// cfg.Model), and the local RNG seed comes from a fresh clone, so a
// participant's unweighted round-0 parameters are the same whichever
// coalition it trains in; the size weight and secure-aggregation masks are
// applied afterwards, to a copy. A memo belongs to the trainer that made it
// and is safe for concurrent use. Its lifetime is the caller's choice: one
// coalition valuation shares one memo, while separate real trainings of the
// same federation should not, so a benchmark repeating them still pays for
// every run.
type FirstRoundMemo struct {
	tr *Trainer

	mu sync.Mutex
	m  map[*Participant]*memoEntry
}

// memoEntry is one participant's slot, claimed under the memo lock and
// filled outside it, like encodeEntry.
type memoEntry struct {
	once   sync.Once
	params []float64
}

// NewFirstRoundMemo returns an empty memo bound to tr.
func (tr *Trainer) NewFirstRoundMemo() *FirstRoundMemo {
	return &FirstRoundMemo{tr: tr, m: make(map[*Participant]*memoEntry)}
}

// params returns p's unweighted round-0 parameters, running train once per
// participant however many goroutines ask. Callers must not modify the
// returned slice.
func (mm *FirstRoundMemo) params(p *Participant, train func() []float64) []float64 {
	mm.mu.Lock()
	ent, ok := mm.m[p]
	if !ok {
		ent = &memoEntry{}
		mm.m[p] = ent
	}
	mm.mu.Unlock()
	ent.once.Do(func() { ent.params = train() })
	return ent.params
}

// Train runs FedAvg over the given participants and returns the final global
// model. Per the FedAvg algorithm the server averages client parameter
// vectors weighted by local dataset size each round. An empty participant
// list is an error.
func (tr *Trainer) Train(parts []*Participant) (*nn.Model, error) {
	return tr.TrainMemo(parts, nil)
}

// TrainMemo is Train with round-0 local updates taken from memo (nil means
// train every one). The result is bit-identical to Train's.
func (tr *Trainer) TrainMemo(parts []*Participant, memo *FirstRoundMemo) (*nn.Model, error) {
	if memo != nil && memo.tr != tr {
		return nil, fmt.Errorf("fl: FirstRoundMemo used with a trainer other than its own")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("fl: Train needs at least one participant")
	}
	global, err := nn.New(tr.enc.Width(), tr.cfg.Model)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		if p.Size() == 0 {
			return nil, fmt.Errorf("fl: participant %s has no data", p.Name)
		}
		total += p.Size()
	}

	// Round-level model selection: FedAvg over binarized logical networks
	// can regress when averaging pushes weights across the 0.5 threshold, so
	// the server keeps the aggregated snapshot with the best (size-weighted)
	// training accuracy across rounds. Only already-uploaded client data
	// encodings are consulted — no extra information leaves the clients.
	bestAcc := -1.0
	var bestParams []float64
	snapshot := func() {
		correct := 0
		for _, p := range parts {
			e := tr.encodedData(p)
			pred := global.PredictBatch(e.x)
			for i, y := range e.y {
				if pred[i] == y {
					correct++
				}
			}
		}
		if acc := float64(correct) / float64(total); acc > bestAcc {
			bestAcc = acc
			bestParams = global.Params()
		}
	}

	sampler := rand.New(rand.NewSource(tr.cfg.Seed + 4242))
	for round := 0; round < tr.cfg.Rounds; round++ {
		selected := tr.sampleClients(parts, sampler)
		selTotal := 0
		for _, p := range selected {
			selTotal += p.Size()
		}
		uploads := make([][]float64, len(selected))
		trainLocal := func(p *Participant) []float64 {
			local := global.Clone()
			e := tr.encodedData(p)
			local.TrainEpochs(e.x, e.y, tr.cfg.LocalEpochs)
			tr.localTrains.Add(1)
			return local.Params()
		}
		trainOne := func(idx int, p *Participant) {
			shared := round == 0 && memo != nil
			var lp []float64
			if shared {
				lp = memo.params(p, func() []float64 { return trainLocal(p) })
			} else {
				lp = trainLocal(p)
			}
			w := float64(p.Size()) / float64(selTotal)
			if tr.cfg.SecureAgg {
				uploads[idx] = MaskUpdate(lp, w, idx, len(selected), round, tr.cfg.Seed)
				return
			}
			// The memo's vector is shared with other runs: weight a copy.
			up := lp
			if shared {
				up = make([]float64, len(lp))
			}
			for i, v := range lp {
				up[i] = v * w
			}
			uploads[idx] = up
		}
		if tr.cfg.Parallel {
			var wg sync.WaitGroup
			for idx, p := range selected {
				wg.Add(1)
				go func(idx int, p *Participant) {
					defer wg.Done()
					trainOne(idx, p)
				}(idx, p)
			}
			wg.Wait()
		} else {
			for idx, p := range selected {
				trainOne(idx, p)
			}
		}
		if err := global.SetParams(AggregateMasked(uploads)); err != nil {
			return nil, err
		}
		snapshot()
	}
	if bestParams != nil {
		if err := global.SetParams(bestParams); err != nil {
			return nil, err
		}
	}
	return global, nil
}

// sampleClients returns the round's participating clients: all of them when
// ClientFraction is 0 or >= 1, otherwise a uniform sample of
// max(1, round(C*n)) clients.
func (tr *Trainer) sampleClients(parts []*Participant, r *rand.Rand) []*Participant {
	c := tr.cfg.ClientFraction
	if c <= 0 || c >= 1 {
		return parts
	}
	k := int(c*float64(len(parts)) + 0.5)
	if k < 1 {
		k = 1
	}
	idx := r.Perm(len(parts))[:k]
	out := make([]*Participant, k)
	for i, j := range idx {
		out[i] = parts[j]
	}
	return out
}

// Evaluate returns the model's test accuracy on tab under the trainer's
// encoder — the paper's data utility metric v (Eq. 1).
func (tr *Trainer) Evaluate(m *nn.Model, tab *dataset.Table) float64 {
	x, y := tr.enc.EncodeTable(tab)
	return m.Accuracy(x, y)
}
