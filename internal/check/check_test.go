package check

import (
	"math/rand"
	"strings"
	"testing"

	"systolicdp/internal/spec"
)

// The central property: every engine/design combination agrees on every
// generated instance, including degenerate shapes and extreme weights.
// Workers include 4 — more than this host may have CPUs — so the
// chain-ordering wavefront's worker pool is exercised oversubscribed.
func TestRunCleanAcrossEngines(t *testing.T) {
	rep, err := Run(Options{N: 120, Seed: 7, Workers: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 120 {
		t.Errorf("instances = %d, want 120", rep.Instances)
	}
	if rep.Combos == 0 {
		t.Fatal("no comparisons performed")
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s\nreproducer:\n%s", m.Error(), Reproducer(m.Instance))
	}
}

// Every kind individually stays clean and actually produces comparisons.
func TestRunPerKind(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			rep, err := Run(Options{N: 30, Seed: 11, Kinds: []string{kind}, Workers: []int{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Combos == 0 {
				t.Fatal("no comparisons performed")
			}
			for _, m := range rep.Mismatches {
				t.Errorf("mismatch: %s\nreproducer:\n%s", m.Error(), Reproducer(m.Instance))
			}
		})
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	if _, err := Run(Options{N: 1, Kinds: []string{"sudoku"}}); err == nil {
		t.Fatal("Run accepted unknown kind")
	}
}

// Identical seeds generate identical instance streams — reproducibility
// is what makes a printed seed a bug report.
func TestGenDeterministic(t *testing.T) {
	a := rand.New(rand.NewSource(5))
	b := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		ia, ib := Gen(a, GenConfig{}), Gen(b, GenConfig{})
		if Reproducer(ia) != Reproducer(ib) {
			t.Fatalf("instance %d diverged under the same seed", i)
		}
	}
}

// The generator must actually emit its advertised degenerate shapes.
func TestGenCoversDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := 0; i < 800; i++ {
		in := Gen(rng, GenConfig{})
		seen[in.Kind()] = true
		for _, tag := range []string{"degenerate:m=1", "degenerate:n=2", "degenerate:single-edge"} {
			if strings.Contains(in.Label, tag) {
				seen[tag] = true
			}
		}
		if in.Semiring == "max-plus" {
			seen["max-plus"] = true
		}
	}
	for _, want := range append(Kinds(),
		"degenerate:m=1", "degenerate:n=2", "degenerate:single-edge", "max-plus") {
		if !seen[want] {
			t.Errorf("800 instances never produced %q", want)
		}
	}
}

// Reproducer output replays to the same verdict (clean instances stay
// clean through the JSON round trip).
func TestReproducerReplayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10; i++ {
		in := Gen(rng, GenConfig{})
		ms, err := Replay([]byte(Reproducer(in)), []int{1, 2})
		if err != nil {
			t.Fatalf("replay %s: %v", in, err)
		}
		for _, m := range ms {
			t.Errorf("replayed %s mismatched: %s", in, m.Error())
		}
	}
}

func TestMinimizeLeavesCleanInstanceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := GenKind(rng, "graph", GenConfig{})
	out := Minimize(in, []int{1})
	if Reproducer(out) != Reproducer(in) {
		t.Error("Minimize altered an instance with no mismatch")
	}
}

// Inject a synthetic bug — "fails whenever any weight equals 7" — and
// confirm the minimizer shrinks a large graph down to near the minimal
// failing shape while preserving the failure.
func TestMinimizeShrinksInjectedFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var in *Instance
	has7 := func(c *Instance) bool {
		for _, stage := range c.File.Costs {
			for _, row := range stage {
				for _, w := range row {
					if w == 7 {
						return true
					}
				}
			}
		}
		return false
	}
	for in == nil || !has7(in) {
		in = GenKind(rng, "graph", GenConfig{MaxStages: 7, MaxM: 6})
	}
	before := instSize(in)
	out := minimizeWith(in, has7)
	if !has7(out) {
		t.Fatal("minimizer lost the failure")
	}
	after := instSize(out)
	if after >= before {
		t.Errorf("minimizer did not shrink: %d -> %d weights", before, after)
	}
	// Minimal failing graph: source row + sink column + the single kept 7.
	// Allow slack for shapes where stage structure pins extra entries, but
	// it must get close.
	if after > 8 {
		t.Errorf("minimized instance still has %d weights, want <= 8\n%s", after, Reproducer(out))
	}
	if !strings.Contains(out.Label, "minimized") {
		t.Errorf("label %q not marked minimized", out.Label)
	}
}

// The node-valued shrinker must take ragged stages (the generator draws
// them) without indexing past a short stage, and still shrink them.
func TestMinimizeShrinksRaggedNodeValued(t *testing.T) {
	in := &Instance{File: spec.File{Problem: "nodevalued",
		Values: [][]float64{{1, 2, 3, 4}, {5}, {6, 7}, {8, 9, 10}}}}
	has7 := func(c *Instance) bool {
		for _, vs := range c.File.Values {
			for _, v := range vs {
				if v == 7 {
					return true
				}
			}
		}
		return false
	}
	out := minimizeWith(in, has7)
	if !has7(out) {
		t.Fatal("minimizer lost the failure")
	}
	if got := instSize(out); got != 2 {
		t.Errorf("minimized instance has %d values, want 2 (two one-value stages)\n%s", got, Reproducer(out))
	}
}

func instSize(in *Instance) int {
	n := 0
	for _, stage := range in.File.Costs {
		for _, row := range stage {
			n += len(row)
		}
	}
	for _, row := range in.File.Values {
		n += len(row)
	}
	for _, d := range in.File.Domains {
		n += len(d)
	}
	n += len(in.File.X) + len(in.File.Y) + len(in.File.Dims)
	return n
}

// The oracle must notice an actually-wrong answer: corrupt a weight in a
// way that breaks the spec round-trip agreement and confirm Check
// reports it. (Guards against the harness silently comparing nothing.)
func TestCheckDetectsSyntheticMismatch(t *testing.T) {
	in := &Instance{Label: "synthetic"}
	in.File.Problem = "graph"
	// A wrapped 3-stage graph whose sink matrix disagrees in length with
	// the stage structure — the generator never emits this, so the
	// checker must flag it rather than silently skipping the instance.
	in.File.Costs = [][][]float64{
		{{1, 2}},
		{{3}, {4}, {5}}, // 3 rows feeding a 2-node stage: invalid
	}
	ms, _ := Check(in, []int{1})
	if len(ms) == 0 {
		t.Fatal("Check accepted a structurally invalid instance")
	}
}
