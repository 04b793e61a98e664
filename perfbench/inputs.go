package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fedsim"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/rules"
)

// fedInputs is one federation's published artifacts and the pre-encoded
// request bodies the service workloads send. Everything is a pure function
// of the seed and the sizes.
type fedInputs struct {
	encJSON    []byte
	modelBytes []byte
	evalCSV    []byte
	// The artifacts as the node sees them, decoded from the bytes above, so
	// in-process references compute on exactly what the node computes on.
	enc   *dataset.Encoder
	model *nn.Model
	rs    *rules.Set
	test  *dataset.Table // the federation's reserved test set
	// materializeMS is how long experiments.Materialize took.
	materializeMS float64

	frames [][]byte                      // upload frames, recordsPerFrame records each
	rounds [][]protocol.RoundParticipant // fedsim per-round client updates
}

// fedsimRounds and fedsimEpochs size the simulated federation's FedAvg
// training; its per-round client updates are the round stream the
// aggregator pushes. Eight rounds of ten epochs train past the
// majority-class model, so the rounds' utilities differ (see roundSteps).
const (
	fedsimRounds = 8
	fedsimEpochs = 10
)

// The node's round-stream settings (ctflsrv -round-perms,
// -round-inner-epsilon, -round-workers) and the evaluation set size. Four
// permutations over 64 rows keep a scored round at a few milliseconds, so a
// run holds the 1000 rounds a p99 needs. Within-round truncation is off, so
// the coalitions a scored round evaluates depend only on the node's round
// seed and the round number, not on the data; between-round truncation
// keeps its default. One coalition-evaluation worker leaves the second CPU
// to the upload path, which otherwise queues behind round compute and
// swings its latency with every change in the host's load.
const (
	evalRows          = 64
	roundPermutations = 4
	roundInnerEpsilon = -1
	roundWorkers      = 1
)

// buildInputs materializes the paper's tic-tac-toe federation (n = 8
// skew-label participants), trains it with FedAvg through fedsim (the
// final global model is the published model, the per-round client updates
// are the round stream), and slices the participants' rule activations
// into frames distinct upload frames of recordsPerFrame records each.
func buildInputs(seed int64, frames, recordsPerFrame int) (*fedInputs, error) {
	t0 := time.Now()
	s, err := experiments.Materialize(experiments.QuickWorkload("tic-tac-toe", true, seed))
	if err != nil {
		return nil, err
	}
	materialize := time.Since(t0)
	enc := s.Trainer.Encoder()
	sim, err := fedsim.Run(enc, s.Parts, s.Test, fedsim.Config{
		Rounds: fedsimRounds, LocalEpochs: fedsimEpochs, Model: s.Trainer.Config().Model, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("fedsim: %w", err)
	}
	in := &fedInputs{test: s.Test, materializeMS: float64(materialize.Nanoseconds()) / 1e6}
	if in.encJSON, err = json.Marshal(enc); err != nil {
		return nil, err
	}
	var mb bytes.Buffer
	if _, err := sim.Model.WriteTo(&mb); err != nil {
		return nil, err
	}
	in.modelBytes = mb.Bytes()
	// The streaming evaluation set is the test set's first evalRows rows.
	evalIdx := make([]int, min(evalRows, s.Test.Len()))
	for i := range evalIdx {
		evalIdx[i] = i
	}
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, s.Test.Subset(evalIdx)); err != nil {
		return nil, err
	}
	in.evalCSV = csv.Bytes()

	// Decode the published bytes back, as the node does.
	in.enc = new(dataset.Encoder)
	if err := json.Unmarshal(in.encJSON, in.enc); err != nil {
		return nil, err
	}
	if in.model, err = nn.ReadModel(bytes.NewReader(in.modelBytes)); err != nil {
		return nil, err
	}
	in.rs = rules.Extract(in.model, in.enc)

	// Frame j belongs to participant j mod n and carries the next
	// recordsPerFrame of that participant's records, wrapping around.
	acts := make([][]protocol.Record, len(s.Parts))
	for pi, p := range s.Parts {
		a, _ := in.rs.ActivationsTable(p.Data)
		for i, x := range a {
			acts[pi] = append(acts[pi], protocol.Record{Label: p.Data.Instances[i].Label, Activations: x})
		}
	}
	next := make([]int, len(s.Parts))
	for j := 0; j < frames; j++ {
		pi := j % len(s.Parts)
		up := &protocol.Upload{Participant: pi, RuleWidth: in.rs.Width()}
		for k := 0; k < recordsPerFrame; k++ {
			up.Records = append(up.Records, acts[pi][next[pi]%len(acts[pi])])
			next[pi]++
		}
		f, err := up.Encode()
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, f)
	}

	for _, ups := range sim.Updates {
		rps := make([]protocol.RoundParticipant, len(ups))
		for i, u := range ups {
			rps[i] = protocol.RoundParticipant{ID: u.Participant, Weight: u.Weight, Params: u.Params}
		}
		in.rounds = append(in.rounds, rps)
	}
	return in, nil
}

// roundSteps plans the aggregator's push sequence: steps[r-1] is the
// simulated round whose client updates pushed round r carries (a round
// frame is ~150 KB, so frames are encoded one at a time as they are sent).
// Every repeatEvery-th round repeats its predecessor's updates, and every
// other round moves on to the next simulated round whose grand-coalition
// utility differs from the current one. The engine's between-round
// truncation skips a round whose utility equals the last scored round's,
// so exactly the repeated rounds are skipped, where cycling the simulated
// rounds blindly would skip whichever of them happen to tie. (A federation
// whose training never leaves the majority-class model has no second
// utility; all its rounds after the first are skipped.)
func (in *fedInputs) roundSteps(count, repeatEvery int) ([]int, error) {
	cfg, err := in.engineConfig()
	if err != nil {
		return nil, err
	}
	// Each simulated round's grand-coalition utility, as a fresh engine
	// configured like the node's computes it: eval-set accuracy, a multiple
	// of 1/evalRows, so unequal utilities differ by more than the engine's
	// 1e-3 truncation threshold.
	util := make([]float64, len(in.rounds))
	for k, rps := range in.rounds {
		eng, err := rounds.New(cfg)
		if err != nil {
			return nil, err
		}
		f, err := protocol.AppendRoundUpdate(nil, 1, rps)
		if err != nil {
			return nil, err
		}
		o, err := eng.Compute(parseRoundFrame(f))
		if err != nil {
			return nil, err
		}
		util[k] = o.VFull
	}
	steps := make([]int, count)
	step := 0
	for r := 1; r <= count; r++ {
		if r > 1 && r%repeatEvery != 0 {
			next := (step + 1) % len(in.rounds)
			for d := 1; d < len(in.rounds); d++ {
				if c := (step + d) % len(in.rounds); util[c] != util[step] {
					next = c
					break
				}
			}
			step = next
		}
		steps[r-1] = step
	}
	return steps, nil
}

// roundFrame encodes pushed round r (1-based) into buf.
func (in *fedInputs) roundFrame(buf []byte, steps []int, r int) []byte {
	f, err := protocol.AppendRoundUpdate(buf[:0], r, in.rounds[steps[r-1]])
	if err != nil {
		panic(err) // the updates come from fedsim and are well formed
	}
	return f
}

// engineConfig is the rounds.Engine configuration a node builds when the
// evaluation set is registered: the published model, the eval CSV parsed
// and encoded as the node parses it, and the node's round flags.
func (in *fedInputs) engineConfig() (rounds.Config, error) {
	test, err := dataset.ReadCSV(bytes.NewReader(in.evalCSV), in.enc.Schema(), dataset.CSVOptions{
		HasHeader: true, PositiveLabel: in.enc.Schema().Labels[1], TrimSpace: true, ClampContinuous: true,
	})
	if err != nil {
		return rounds.Config{}, err
	}
	x, y := in.enc.EncodeTable(test)
	return rounds.Config{Model: in.model, EvalX: x, EvalY: y, Seed: nodeRoundSeed,
		Permutations: roundPermutations, InnerEpsilon: roundInnerEpsilon, Workers: roundWorkers}, nil
}

// parseRoundFrame views an encoded round-update frame; the frames are the
// benchmark's own, so a parse failure is a bug.
func parseRoundFrame(frame []byte) protocol.RoundUpdate {
	f, _, err := protocol.ParseFrame(frame)
	if err != nil {
		panic(err)
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		panic(err)
	}
	return u
}

// predictBatches encodes count predict requests of rows test rows each,
// drawn from the test set by rng, as binary frames; rowsOf keeps the
// float32 rows for the in-process reference.
func (in *fedInputs) predictBatches(rng *rand.Rand, count, rows int) (frames [][]byte, rowsOf [][]float32, err error) {
	width := in.enc.Width()
	for b := 0; b < count; b++ {
		var rs []float32
		for i := 0; i < rows; i++ {
			x := in.enc.Encode(in.test.Instances[rng.Intn(in.test.Len())], nil)
			for _, v := range x {
				rs = append(rs, float32(v))
			}
		}
		f, err := protocol.AppendPredictRequest(nil, width, rs)
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, f)
		rowsOf = append(rowsOf, rs)
	}
	return frames, rowsOf, nil
}

// traceSubsets draws count distinct test subsets of size rows and returns
// them as CSV bodies.
func (in *fedInputs) traceSubsets(rng *rand.Rand, count, rows int) ([][]byte, error) {
	out := make([][]byte, 0, count)
	seen := map[string]bool{}
	for len(out) < count {
		idx := rng.Perm(in.test.Len())[:rows]
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, in.test.Subset(idx)); err != nil {
			return nil, err
		}
		if seen[csv.String()] {
			continue
		}
		seen[csv.String()] = true
		out = append(out, csv.Bytes())
	}
	return out, nil
}

// publish loads the federation onto a fresh node: encoder, model, and the
// streaming evaluation set.
func (in *fedInputs) publish(n *node) error {
	if _, err := n.expect(204, "POST", "/v1/encoder", "application/json", "", in.encJSON); err != nil {
		return err
	}
	if _, err := n.expect(204, "POST", "/v1/model", "application/octet-stream", "", in.modelBytes); err != nil {
		return err
	}
	_, err := n.expect(200, "POST", "/v1/rounds", "text/csv", "", in.evalCSV)
	return err
}
