package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/store"
)

// service-ingest: the write path. Client 1 streams upload frames of a
// fixed record count to POST /v1/uploads; client 2 is the round aggregator
// and pushes rising round numbers of fedsim updates to POST /v1/rounds.
// Both are closed loops (each waits for its reply) with fixed operation
// counts, so every run at a seed ends in the same node state. Compaction
// stays at the node's default; at the end the node is killed and restarted
// on its data directory. Frame validation -> WAL append + fsync -> apply ->
// round compute do the work; neither the tracer nor predict runs. A run
// serves its federations one after another, each on a fresh node.

// ingestSizes fixes one federation's operation counts.
type ingestSizes struct {
	frames          int // distinct upload frames, cycled by client 1
	recordsPerFrame int
	uploads         int // client 1 requests
	rounds          int // client 2 requests
	repeatEvery     int // every repeatEvery-th round repeats its predecessor's updates
}

// ingestSizesFor sizes a run to about seconds on a 2-CPU host. 6400
// uploads of 160 records pass the node's 8 MiB compaction threshold once,
// at ~170 MB of node memory, and give the upload p99 over 190 samples
// beyond it, well clear of the few dozen uploads that pay for a compaction
// or for growing the node's record slice. A scored round costs ~8 ms.
func ingestSizesFor(seconds int) ingestSizes {
	return ingestSizes{
		frames: 64, recordsPerFrame: 160,
		uploads: min(6400, 250*seconds), rounds: 20 * seconds, repeatEvery: 4,
	}
}

// The node's defaults the in-process references mirror (ctflsrv flags).
const (
	nodeCompactBytes = 8 << 20 // -compact-bytes
	nodeRoundSeed    = 1       // -round-seed
)

// setupPublishes is how many WAL appends set-up makes: encoder, model and
// the streaming evaluation set.
const setupPublishes = 3

func runIngest(cfg runConfig) (*outcome, error) {
	return runIngestSized(cfg, ingestSizesFor(cfg.seconds))
}

// write is one acknowledged write, in the order the node acknowledged it.
type write struct {
	at    time.Time
	round bool
	i     int
}

// ingestAcc pools measurements over a run's federations.
type ingestAcc struct {
	setup, replay, materialize sample
	rss                        []float64
	wall                       time.Duration
	acked                      int
	up, rd                     *route
	// scored holds the latencies of the rounds the node scored rather than
	// skipped. A federation whose FedAvg never leaves the majority-class
	// model (a few percent of seeds) has every round after the first
	// skipped; gating on scored rounds keeps such a draw from moving the
	// round median across the two regimes.
	scored sample

	// The traced replay, per call.
	validate, decode, appendS, compact, reopen, replayRounds, compute, apply sample
	payloadBytes, walBytes, snapBytes                                        float64
	evals, skipped, rounds                                                   int
}

func runIngestSized(cfg runConfig, sz ingestSizes) (*outcome, error) {
	out := newOutcome()
	if cfg.trace {
		out.spans = newSpanLog()
	}
	acc := &ingestAcc{up: &route{name: "upload"}, rd: &route{name: "round"}}
	for e := 0; e < federations; e++ {
		if err := ingestFederation(cfg, sz, e, acc, out); err != nil {
			return nil, fmt.Errorf("federation %d: %w", e, err)
		}
	}
	up, rd := acc.up, acc.rd
	out.addRoute(up)
	out.addRoute(rd)
	rss := median(acc.rss)
	out.e2e["setup_s"] = acc.setup.p50() / 1e3
	out.e2e["peak_rss_mb"] = rss
	out.e2e["ops_s"] = float64(acc.acked) / acc.wall.Seconds()
	out.e2e["light_p50_ms"] = up.lat.p50()
	out.e2e["heavy_p50_ms"] = acc.scored.p50()

	out.notef("end-to-end light_p50_ms = upload_p50_ms, heavy_p50_ms = round_scored_p50_ms")
	out.metric("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d federations", acc.setup.n()))
	out.metric("peak_rss_mb", rss, "MB", "node process, median of the federations")
	out.metric("ops_s", out.e2e["ops_s"], "1/s", fmt.Sprintf("%d acknowledged writes in %.2f s", acc.acked, acc.wall.Seconds()))
	out.namedLatency("upload", up.all(), 99)
	out.namedLatency("round", rd.all(), 99)
	out.metric("round_scored_p50_ms", acc.scored.p50(), "ms", fmt.Sprintf("n=%d rounds not skipped", acc.scored.n()))
	out.metric("replay_s", acc.replay.p50()/1e3, "s", "restart after kill until /healthz answers, median of the federations")

	if cfg.trace {
		out.layers["dataset.materialize_ms"] = acc.materialize.p50()
		out.layers["protocol.validate_us"] = acc.validate.p50() * 1e3
		out.layers["protocol.decode_us"] = acc.decode.p50() * 1e3
		out.layers["store.append_us"] = acc.appendS.p50() * 1e3
		out.layers["store.appends"] = float64(acc.appendS.n())
		out.layers["store.write_amp"] = (acc.walBytes + acc.snapBytes) / acc.payloadBytes
		out.layers["store.compactions"] = float64(acc.compact.n())
		out.layers["store.compact_ms"] = acc.compact.p50()
		out.layers["store.replay_ms"] = acc.reopen.p50()
		out.layers["rounds.compute_ms"] = acc.compute.p50()
		out.layers["rounds.apply_us"] = acc.apply.p50() * 1e3
		out.layers["rounds.evals"] = float64(acc.evals)
		out.layers["rounds.skip_ratio"] = float64(acc.skipped) / float64(acc.rounds)
		out.layers["rounds.replay_ms"] = acc.replayRounds.p50()
		out.layers["server.upload_self_us"] = selfUS(up.all().p50(), acc.validate.p50(), acc.decode.p50(), acc.appendS.p50())
		out.layers["server.round_self_us"] = selfUS(rd.all().p50(), acc.compute.p50(), acc.appendS.p50(), acc.apply.p50())
		out.layers["trace.overhead_pct"] = overheadPct(up)
		out.notef("store.write_amp = (WAL bytes %.0f + snapshot bytes %.0f) / payload bytes %.0f",
			acc.walBytes, acc.snapBytes, acc.payloadBytes)
	}
	return out, nil
}

// ingestFederation sets up one federation on a fresh node, runs the two
// clients against it, kills and restarts the node, and checks everything
// the node answered against in-process references.
func ingestFederation(cfg runConfig, sz ingestSizes, e int, acc *ingestAcc, out *outcome) error {
	dataDir := filepath.Join(cfg.dir, fmt.Sprintf("node%d", e))
	t0 := time.Now()
	in, err := buildInputs(subSeed(cfg.seed, e), sz.frames, sz.recordsPerFrame)
	if err != nil {
		return err
	}
	steps, err := in.roundSteps(sz.rounds, sz.repeatEvery)
	if err != nil {
		return err
	}
	n, _, err := startNode(cfg.nodeBin, dataDir, dataDir+".log")
	if err != nil {
		return err
	}
	live := n // the node to kill on the way out
	defer func() {
		if live != nil {
			live.kill()
		}
	}()
	if err := in.publish(n); err != nil {
		return err
	}
	acc.setup.add(time.Since(t0))
	acc.materialize.ms = append(acc.materialize.ms, in.materializeMS)

	before, err := n.scrape()
	if err != nil {
		return err
	}
	spans, up, rd := out.spans, acc.up, acc.rd
	var upAcks, rdAcks []write
	roundResp := make([]*roundReply, sz.rounds)
	acc.wall += runClients(func() {
		for i := 0; i < sz.uploads; i++ {
			frame := in.frames[i%len(in.frames)]
			want := (i + 1) * sz.recordsPerFrame
			up.call(spans, int64(i), func() error {
				body, err := n.expect(http.StatusOK, http.MethodPost, "/v1/uploads", protocol.ContentTypeFrame, "", frame)
				if err != nil {
					return err
				}
				upAcks = append(upAcks, write{at: time.Now(), i: i})
				var r struct{ Frames, Records int }
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				if r.Frames != 1 || r.Records != want {
					return fmt.Errorf("upload %d: node holds %d records after %d frame(s), want %d after 1", i, r.Records, r.Frames, want)
				}
				return nil
			})
		}
	}, func() {
		var frame []byte
		for i := range steps {
			frame = in.roundFrame(frame, steps, i+1)
			d := rd.call(spans, int64(i), func() error {
				body, err := n.expect(http.StatusOK, http.MethodPost, "/v1/rounds", protocol.ContentTypeFrame, "", frame)
				if err != nil {
					return err
				}
				rdAcks = append(rdAcks, write{at: time.Now(), round: true, i: i})
				r := new(roundReply)
				if err := json.Unmarshal(body, r); err != nil {
					return err
				}
				roundResp[i] = r
				return nil
			})
			if r := roundResp[i]; r != nil && !r.Skipped {
				acc.scored.add(d)
			}
		}
	})
	after, err := n.scrape()
	if err != nil {
		return err
	}
	rss, err := n.peakRSS()
	if err != nil {
		return err
	}
	acc.rss = append(acc.rss, rss)
	acc.acked += len(upAcks) + len(rdAcks)

	// Kill without a drain, restart on the same data directory, and time
	// the replay until the node answers again.
	n.kill()
	live = nil
	n, replay, err := startNode(cfg.nodeBin, dataDir, dataDir+".restart.log")
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	live = n
	acc.replay.add(replay)

	// In-process reference: the same round sequence through rounds.Engine.
	ref, err := newRoundReplay(in, steps, spans)
	if err != nil {
		return err
	}
	out.checkRounds(roundResp, ref)
	if err := out.checkRestart(n, ref, len(upAcks)*sz.recordsPerFrame); err != nil {
		return err
	}
	d := deltas(before, after)
	out.checkCount("store appends", after["ctfl_store_append_seconds_count"], float64(len(upAcks)+len(rdAcks)+setupPublishes),
		"acknowledged writes + set-up publishes")
	walBytes := 0.0
	for _, a := range upAcks {
		walBytes += float64(recordLen(len(in.frames[a.i%len(in.frames)])))
	}
	for _, a := range rdAcks {
		walBytes += float64(recordLen(len(ref.outs[a.i].Payload())))
	}
	out.checkCount("store bytes", d["ctfl_store_append_bytes_sum"], walBytes, "WAL record bytes of the acknowledged writes")
	out.checkCount("rounds evals", d["ctfl_rounds_evals_total"], float64(ref.evals), "in-process replay's coalition evaluations")
	out.checkCount("rounds skipped", d["ctfl_rounds_skipped_total"], float64(ref.skipped), "in-process replay's skipped rounds")
	out.notef("federation %d /metrics deltas: store appends %g, bytes %g, compactions %g; rounds evals %g, skipped %g",
		e, d["ctfl_store_append_seconds_count"], d["ctfl_store_append_bytes_sum"], d["ctfl_store_compactions_total"],
		d["ctfl_rounds_evals_total"], d["ctfl_rounds_skipped_total"])

	if cfg.trace {
		acks := append(append([]write(nil), upAcks...), rdAcks...)
		sort.Slice(acks, func(a, b int) bool { return acks[a].at.Before(acks[b].at) })
		return out.ingestLayers(filepath.Join(cfg.dir, fmt.Sprintf("replay%d", e)), in, ref, acks, acc)
	}
	return nil
}

// roundReply is POST /v1/rounds's answer.
type roundReply struct {
	Round         int     `json:"round"`
	Skipped       bool    `json:"skipped"`
	GlobalUtility float64 `json:"global_utility"`
	Evals         int     `json:"evals"`
}

// recordLen is the WAL's on-disk size of one event with a payload of n
// bytes: length, type, payload, CRC.
func recordLen(n int) int { return 4 + 1 + n + 4 }

// roundReplay is the in-process reference for the round stream: the same
// frames through a rounds.Engine configured like the node's.
type roundReplay struct {
	eng            *rounds.Engine
	cfg            rounds.Config
	outs           []*rounds.Outcome
	evals, skipped int
	compute, apply sample
}

func newRoundReplay(in *fedInputs, steps []int, log *spanLog) (*roundReplay, error) {
	cfg, err := in.engineConfig()
	if err != nil {
		return nil, err
	}
	rr := &roundReplay{cfg: cfg}
	if rr.eng, err = rounds.New(cfg); err != nil {
		return nil, err
	}
	var frame []byte
	for i := range steps {
		frame = in.roundFrame(frame, steps, i+1)
		u := parseRoundFrame(frame)
		sp := log.start("rounds.compute", int64(i), -1)
		t0 := time.Now()
		o, err := rr.eng.Compute(u)
		rr.compute.add(time.Since(t0))
		log.end(sp)
		if err != nil {
			return nil, fmt.Errorf("reference round %d: %w", i+1, err)
		}
		sp = log.start("rounds.apply", int64(i), -1)
		t0 = time.Now()
		err = rr.eng.Apply(o)
		rr.apply.add(time.Since(t0))
		log.end(sp)
		if err != nil {
			return nil, err
		}
		rr.outs = append(rr.outs, o)
		rr.evals += o.Evals
		if o.Skipped {
			rr.skipped++
		}
	}
	return rr, nil
}

// checkRounds compares every round reply with the reference outcome; a
// mismatch is a wrong answer, counted as a failed operation.
func (o *outcome) checkRounds(got []*roundReply, ref *roundReplay) {
	bad := 0
	for i, r := range got {
		if r == nil {
			continue // already counted as failed
		}
		w := ref.outs[i]
		if r.Round != w.Round || r.Skipped != w.Skipped || r.Evals != w.Evals ||
			math.Float64bits(r.GlobalUtility) != math.Float64bits(w.VFull) {
			bad++
			if bad <= 3 {
				o.notef("round %d: node %+v, reference round=%d skipped=%v utility=%v evals=%d",
					i+1, *r, w.Round, w.Skipped, w.VFull, w.Evals)
			}
		}
	}
	o.failed += int64(bad)
	o.check("rounds.replies", bad == 0, "%d of %d round replies differ from the in-process rounds.Engine", bad, len(got))
}

// checkRestart compares the restarted node's state with the references:
// its scores with the in-process engine's, bit for bit, and its upload
// record count with the acknowledged uploads.
func (o *outcome) checkRestart(n *node, ref *roundReplay, records int) error {
	o.attempted += 2
	body, err := n.expect(http.StatusOK, http.MethodGet, "/v1/scores", "", protocol.ContentTypeFrame, nil)
	if err != nil {
		return err
	}
	f, _, err := protocol.ParseFrame(body)
	if err != nil {
		return err
	}
	got, err := protocol.ParseScoresSnapshot(f)
	if err != nil {
		return err
	}
	want := ref.eng.Snapshot()
	ok := got.Rounds == want.Rounds && got.Skipped == want.Skipped && hashFloats(got.Scores) == hashFloats(want.Scores)
	if !o.check("restart.scores", ok, "after restart: %d rounds (%d skipped), scores %s; in-process replay: %d rounds (%d skipped), scores %s",
		got.Rounds, got.Skipped, hashFloats(got.Scores), want.Rounds, want.Skipped, hashFloats(want.Scores)) {
		o.failed++
	}
	body, err = n.expect(http.StatusOK, http.MethodGet, "/healthz", "", "", nil)
	if err != nil {
		return err
	}
	var h struct{ Uploads int }
	if err := json.Unmarshal(body, &h); err != nil {
		return err
	}
	if !o.check("restart.uploads", h.Uploads == records, "after restart the node holds %d upload records; acknowledged uploads carried %d",
		h.Uploads, records) {
		o.failed++
	}
	return nil
}

// ingestLayers replays one federation's writes through each layer's public
// functions, every call a span: frame validation and decode, the WAL append
// with fsync in acknowledgement order (compacting at the node's threshold),
// WAL replay, and outcome replay.
func (o *outcome) ingestLayers(dir string, in *fedInputs, ref *roundReplay, acks []write, acc *ingestAcc) error {
	log := o.spans
	var uploads []core.TrainingUpload
	st, _, err := store.Open(dir, store.Options{Sync: true})
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	snapshot := []store.Event{
		{Type: store.EventEncoder, Payload: in.encJSON},
		{Type: store.EventModel, Payload: in.modelBytes},
	}
	var frames, payloads [][]byte
	if err := st.AppendBatch(append(append([]store.Event(nil), snapshot...),
		store.Event{Type: store.EventRoundEval, Payload: in.evalCSV})); err != nil {
		return err
	}
	timed := func(s *sample, name string, op int64, fn func() error) error {
		sp := log.start(name, op, -1)
		t0 := time.Now()
		err := fn()
		s.add(time.Since(t0))
		log.end(sp)
		return err
	}
	for k, a := range acks {
		var ev store.Event
		if a.round {
			p := ref.outs[a.i].Payload()
			payloads = append(payloads, p)
			ev = store.Event{Type: store.EventRound, Payload: p}
		} else {
			frame := in.frames[a.i%len(in.frames)]
			if err := timed(&acc.validate, "protocol.validate", int64(k), func() error {
				_, err := protocol.ValidateUploadFrame(frame)
				return err
			}); err != nil {
				return err
			}
			if err := timed(&acc.decode, "protocol.decode", int64(k), func() error {
				var err error
				uploads, _, err = protocol.AppendTrainingRecords(uploads, frame)
				return err
			}); err != nil {
				return err
			}
			frames = append(frames, frame)
			ev = store.Event{Type: store.EventUpload, Payload: frame}
		}
		acc.payloadBytes += float64(len(ev.Payload))
		acc.walBytes += float64(recordLen(len(ev.Payload)))
		if err := timed(&acc.appendS, "store.append", int64(k), func() error { return st.AppendBatch([]store.Event{ev}) }); err != nil {
			return err
		}
		if st.WALSize() > nodeCompactBytes {
			evs := append([]store.Event(nil), snapshot...)
			for _, f := range frames {
				evs = append(evs, store.Event{Type: store.EventUpload, Payload: f})
			}
			evs = append(evs, store.Event{Type: store.EventRoundEval, Payload: in.evalCSV})
			for _, p := range payloads {
				evs = append(evs, store.Event{Type: store.EventRound, Payload: p})
			}
			for _, e := range evs {
				acc.snapBytes += float64(recordLen(len(e.Payload)))
			}
			if err := timed(&acc.compact, "store.compact", int64(k), func() error { return st.Compact(evs) }); err != nil {
				return err
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	st = nil
	var replayed []store.Event
	if err := timed(&acc.reopen, "store.replay", 0, func() error {
		s2, evs, err := store.Open(dir, store.Options{Sync: true})
		if err != nil {
			return err
		}
		replayed = evs
		return s2.Close()
	}); err != nil {
		return err
	}
	o.check("replay.store-events", len(replayed) == len(acks)+setupPublishes,
		"WAL replay returned %d events for %d writes + %d publishes", len(replayed), len(acks), setupPublishes)

	fresh, err := rounds.New(ref.cfg)
	if err != nil {
		return err
	}
	if err := timed(&acc.replayRounds, "rounds.replay", 0, func() error {
		for _, p := range payloads {
			if err := fresh.ApplyPayload(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	o.check("replay.rounds", hashFloats(fresh.Snapshot().Scores) == hashFloats(ref.eng.Snapshot().Scores),
		"ApplyPayload over the run's outcomes reproduces the computed scores")
	acc.compute.ms = append(acc.compute.ms, ref.compute.ms...)
	acc.apply.ms = append(acc.apply.ms, ref.apply.ms...)
	acc.evals += ref.evals
	acc.skipped += ref.skipped
	acc.rounds += len(ref.outs)
	return nil
}
