package check

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"systolicdp/internal/spec"
)

// Options configures a randomized differential-testing run.
type Options struct {
	N       int      // instances to generate; default 200
	Seed    int64    // generator seed; same seed => same instances
	Kinds   []string // instance kinds to draw from; default spec.Kinds()
	Workers []int    // chain-ordering wavefront worker counts; default DefaultWorkers
	Gen     GenConfig
	// StopOnFirst stops the run at the first mismatching instance (the
	// CLI minimizes and prints that one).
	StopOnFirst bool
	// Progress, if non-nil, is called after each instance is checked.
	Progress func(done, total int)
}

// Report summarizes a run.
type Report struct {
	Instances  int // instances generated and checked
	Combos     int // engine/engine and engine/invariant comparisons performed
	Mismatches []*Mismatch
}

// OK reports whether the run found no mismatches.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// Run generates opts.N seeded instances and differentially checks each
// one across every applicable engine/design combination.
func Run(opts Options) (*Report, error) {
	if opts.N <= 0 {
		opts.N = 200
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = spec.Kinds()
	}
	for _, k := range kinds {
		if _, ok := ops[k]; !ok {
			return nil, fmt.Errorf("check: unknown kind %q (have %v)", k, spec.Kinds())
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &Report{}
	for i := 0; i < opts.N; i++ {
		inst := GenKind(rng, kinds[rng.Intn(len(kinds))], opts.Gen)
		ms, combos := Check(inst, opts.Workers)
		rep.Instances++
		rep.Combos += combos
		rep.Mismatches = append(rep.Mismatches, ms...)
		if opts.Progress != nil {
			opts.Progress(i+1, opts.N)
		}
		if len(ms) > 0 && opts.StopOnFirst {
			break
		}
	}
	return rep, nil
}

// Reproducer renders an instance as the JSON spec dpcheck prints on a
// mismatch; `dpcheck -replay file.json` (or any spec-aware tool, for the
// inner File) re-runs it.
func Reproducer(inst *Instance) string {
	b, err := json.MarshalIndent(inst, "", "  ")
	if err != nil {
		return fmt.Sprintf("{/* marshal failed: %v */}", err)
	}
	return string(b)
}

// Replay re-checks a reproducer previously printed by Reproducer.
func Replay(data []byte, workers []int) ([]*Mismatch, error) {
	var inst Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, fmt.Errorf("check: bad reproducer: %w", err)
	}
	ms, _ := Check(&inst, workers)
	return ms, nil
}
