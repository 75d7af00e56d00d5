package check

import (
	"math/rand"
	"testing"

	"systolicdp/internal/spec"
)

// FuzzCheckInstances drives the differential oracle from a fuzzed
// (seed, kind) pair: whatever instance the generator derives, every
// engine combination must agree. A finding here is a real engine bug —
// the failing input pins the exact seed for replay.
func FuzzCheckInstances(f *testing.F) {
	for _, seed := range []int64{1, 2, 42} {
		for k := range spec.Kinds() {
			f.Add(seed, byte(k))
		}
	}
	cfg := GenConfig{MaxStages: 5, MaxM: 4, MaxLen: 8, MaxChain: 6, MaxVars: 5}
	f.Fuzz(func(t *testing.T, seed int64, kind byte) {
		kinds := spec.Kinds()
		inst := GenKind(rand.New(rand.NewSource(seed)), kinds[int(kind)%len(kinds)], cfg)
		ms, _ := Check(inst, []int{1, 2})
		for _, m := range ms {
			t.Errorf("mismatch: %s\nreproducer:\n%s", m.Error(), Reproducer(m.Instance))
		}
	})
}

// FuzzReplay feeds arbitrary bytes to the reproducer loader: it must
// never panic, and any instance it accepts must check without panicking
// (mismatches are fine — hand-edited reproducers may describe broken
// shapes — but the oracle itself has to survive them).
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{"spec":{"problem":"chain","dims":[2,3,4]}}`))
	f.Add([]byte(`{"spec":{"problem":"dtw","x":[1],"y":[0,2]}}`))
	f.Add([]byte(`{"spec":{"problem":"graph","costs":[[[1,"+Inf"]],[[3],[4]]]},"semiring":"max-plus"}`))
	f.Add([]byte(`{"spec":{"problem":"nonserial","domains":[[1],[2],[3]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		inst := &Instance{}
		if err := inst.UnmarshalJSON(data); err != nil {
			return
		}
		if tooBig(inst) {
			return
		}
		Check(inst, []int{1, 2})
	})
}

// tooBig caps fuzz-driven instance sizes so a hostile byte string cannot
// turn one fuzz iteration into a minute-long brute force.
func tooBig(in *Instance) bool {
	if instSize(in) > 400 {
		return true
	}
	if len(in.File.Dims) > 10 {
		return true
	}
	for _, d := range in.File.Dims {
		if d > 50 {
			return true
		}
	}
	total := 1
	for _, dom := range in.File.Domains {
		if len(dom) == 0 {
			continue
		}
		total *= len(dom)
		if total > 1<<12 {
			return true
		}
	}
	return false
}
