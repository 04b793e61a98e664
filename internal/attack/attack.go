// Package attack is the adversarial-robustness harness: it runs an attack
// matrix — attack kind × intensity × valuation scheme — against a seeded
// federation and measures how far each contribution estimator's scores are
// distorted, both on the batch valuation path (internal/valuation, which
// retrains coalitions from participant data) and the streaming per-round
// path (internal/rounds, which scores the updates clients actually
// submitted).
//
// The two paths see different attack surfaces, and the harness reports
// that honestly: data-space attacks (label flipping) distort both paths,
// but update-space attacks (free-riders, scaling, collusion) are invisible
// to the batch path — it never looks at uploaded parameters, so its clean
// and attacked scores are identical by construction. Only the streaming
// path, scoring the real upload stream, observes them; detection latency
// is therefore a streaming-only metric.
//
// Determinism contract: a Matrix is a pure function of its Config. Every
// random choice — data poisoning, dropout churn, tamper noise, permutation
// sampling — derives from Config.Seed, and the streaming engine's scores
// are bit-identical at any Workers count, so the whole matrix reproduces
// bit-for-bit from the seed on any machine.
package attack

import (
	"math/rand"

	"repro/internal/fl"
)

// Spec is one attack kind. Either hook (or both — they compose) may be
// set: Data poisons participants' local datasets before training,
// Update rewrites what attackers upload after training.
type Spec struct {
	Name string
	// Data returns a participant list with the attackers' data poisoned at
	// the given intensity (the honest entries are shared, the attacked
	// entries are fresh copies). Nil for pure update-space attacks.
	Data func(parts []*fl.Participant, attackers []int, intensity float64, r *rand.Rand) []*fl.Participant
	// Update returns the tamper map for fedsim.Config.Tampers. Nil for
	// pure data-space attacks.
	Update func(attackers []int, intensity float64, seed int64) map[int]fl.UpdateTamper
}

// dataAttack lifts one of fl's per-participant transforms to a Spec.Data
// hook over the attacker set. Each attacker's poisoning draws from the
// shared *rand.Rand in attacker order, so the cell seed fixes every draw.
func dataAttack(f func(p *fl.Participant, ratio float64, r *rand.Rand) *fl.Participant) func([]*fl.Participant, []int, float64, *rand.Rand) []*fl.Participant {
	return func(parts []*fl.Participant, attackers []int, intensity float64, r *rand.Rand) []*fl.Participant {
		out := parts
		for _, id := range attackers {
			for _, p := range parts {
				if p.ID == id {
					out = fl.ReplaceParticipant(out, f(p, intensity, r))
					break
				}
			}
		}
		return out
	}
}

// LabelFlip is the label-flipping poisoning attack; intensity is the
// flipped fraction of each attacker's rows.
func LabelFlip() Spec {
	return Spec{Name: "label-flip", Data: dataAttack(fl.FlipLabels)}
}

// updateAttack builds a Spec.Update hook giving each attacker its own
// tamper from mk, seeded per-attacker so independent attackers draw
// independent noise.
func updateAttack(mk func(seed int64) fl.UpdateTamper) func([]int, float64, int64) map[int]fl.UpdateTamper {
	return func(attackers []int, _ float64, seed int64) map[int]fl.UpdateTamper {
		out := make(map[int]fl.UpdateTamper, len(attackers))
		for i, id := range attackers {
			out[id] = mk(seed + int64(i)*7919)
		}
		return out
	}
}

// FreeRide is a free-rider attack in the given mode. For FreeRideNoise the
// cell intensity is the noise standard deviation; the other modes ignore
// intensity.
func FreeRide(mode fl.FreeRiderMode) Spec {
	name := map[fl.FreeRiderMode]string{
		fl.FreeRideZero:  "free-ride-zero",
		fl.FreeRideStale: "free-ride-stale",
		fl.FreeRideNoise: "free-ride-noise",
	}[mode]
	return Spec{Name: name, Update: func(attackers []int, intensity float64, seed int64) map[int]fl.UpdateTamper {
		return updateAttack(func(s int64) fl.UpdateTamper {
			return &fl.FreeRider{Mode: mode, Std: intensity, Seed: s}
		})(attackers, intensity, seed)
	}}
}

// ScalingAttack amplifies each attacker's update delta; intensity is the
// scale factor.
func ScalingAttack() Spec {
	return Spec{Name: "scaling", Update: func(attackers []int, intensity float64, seed int64) map[int]fl.UpdateTamper {
		return updateAttack(func(int64) fl.UpdateTamper {
			return &fl.Scaling{Factor: intensity}
		})(attackers, intensity, seed)
	}}
}

// Collusion is a coordinated noise free-rider group: every attacker shares
// one seed, so their per-round noise is identical and adds coherently
// instead of averaging out. Intensity is the shared noise std.
func Collusion() Spec {
	return Spec{Name: "collusion", Update: func(attackers []int, intensity float64, seed int64) map[int]fl.UpdateTamper {
		tampers := fl.Colluders(len(attackers), seed, func(s int64) fl.UpdateTamper {
			return &fl.FreeRider{Mode: fl.FreeRideNoise, Std: intensity, Seed: s}
		})
		out := make(map[int]fl.UpdateTamper, len(attackers))
		for i, id := range attackers {
			out[id] = tampers[i]
		}
		return out
	}}
}

// LabelFlipAndScaling composes a data-space and an update-space attack:
// the attacker trains on fully flipped labels and amplifies the resulting
// (actively harmful) delta by the cell intensity.
func LabelFlipAndScaling() Spec {
	return Spec{
		Name: "flip+scale",
		Data: func(parts []*fl.Participant, attackers []int, _ float64, r *rand.Rand) []*fl.Participant {
			return dataAttack(fl.FlipLabels)(parts, attackers, 1, r)
		},
		Update: ScalingAttack().Update,
	}
}
