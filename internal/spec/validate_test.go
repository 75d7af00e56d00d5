package spec

import (
	"math"
	"strings"
	"testing"
)

// Regression: Decode used to accept any well-formed JSON — zero,
// negative, and absurd dimensions flowed straight into solvers, and
// programmatically-built Files could carry NaN/±Inf into (MIN,+)
// comparisons where NaN poisons every min. These must now fail fast
// with a clear message.
func TestDecodeRejectsAbsurdDims(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"zero-dim", `{"problem":"chain","dims":[0,5]}`, "dims[0]"},
		{"negative-dim", `{"problem":"chain","dims":[-3,5,7]}`, "dims[0]"},
		{"huge-dim", `{"problem":"chain","dims":[2000000,5]}`, "dims[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.in))
			if err == nil {
				t.Fatalf("Decode(%s) = nil error, want rejection", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode(%s) error %q, want mention of %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestValidateRejectsNonFiniteWeights(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		f    File
		want string
	}{
		{"costs-nan", File{Problem: "graph", Costs: [][][]float64{{{1, nan}}}}, "costs[0][0][1]"},
		{"costs-inf", File{Problem: "graph", Costs: [][][]float64{{{1}}, {{-inf}}}}, "costs[1][0][0]"},
		{"values-nan", File{Problem: "nodevalued", Values: [][]float64{{1}, {nan}}}, "values[1][0]"},
		{"domains-inf", File{Problem: "nonserial", Domains: [][]float64{{inf}, {1}, {2}}}, "domains[0][0]"},
		{"x-nan", File{Problem: "dtw", X: []float64{nan}, Y: []float64{0}}, "x[0]"},
		{"y-inf", File{Problem: "dtw", X: []float64{0}, Y: []float64{0, inf}}, "y[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want rejection")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() error %q, want mention of %q", err, tc.want)
			}
		})
	}
}

// Regression: Validate ranged over map literals for the series, gap and
// job-count fields, so a spec with two bad fields named either one,
// depending on map iteration order.
func TestValidateNamesTheSameFieldEveryTime(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, want string
		validate   func() error
	}{
		{"gaps", "gapopen", func() error {
			_, err := Parse([]byte(`{"problem":"align","x":[1],"y":[2],"gapopen":-1,"gapext":-2}`))
			return err
		}},
		{"series", "x[0]", func() error {
			return (&File{Problem: "dtw", X: []float64{nan}, Y: []float64{inf}}).Validate()
		}},
		{"jobs", "proc", func() error {
			n := MaxSpecJobs + 1
			return (&File{Problem: "knapsack", Proc: make([]int, n), Due: make([]int, n)}).Validate()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]int{}
			for i := 0; i < 100; i++ {
				err := tc.validate()
				if err == nil {
					t.Fatal("bad spec accepted")
				}
				seen[err.Error()]++
			}
			if len(seen) != 1 {
				t.Fatalf("100 calls gave %d different errors: %v", len(seen), seen)
			}
			for msg := range seen {
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("error %q, want mention of %q", msg, tc.want)
				}
			}
		})
	}
}

func TestValidateRejectsOversizedShapes(t *testing.T) {
	bigRow := make([]float64, MaxSpecNodes+1)
	manyDims := make([]int, MaxSpecChainLen+1)
	for i := range manyDims {
		manyDims[i] = 1
	}
	longSeries := make([]float64, MaxSpecSeries+1)
	// Past the payload caps, Validate rejects before anything is built.
	// Past the work ceiling, Build rejects: MaxSpecElems units of the
	// kind's Work, which counts one unit beyond its cells. So 4096 x 4096
	// (2²⁴ + 1 units) is the smallest dtw lattice past it, and 256³ + 1
	// the smallest three-domain nonserial chain. An align cell is three
	// units (3·4097·1366 + 1 ≥ 2²⁴). 464 matrices are the shortest chain
	// past it (464³/6 + 464² ≈ 1.686e7 updates).
	x, y := make([]float64, 4096), make([]float64, 4096)
	longChain := make([]int, 465)
	for i := range longChain {
		longChain[i] = 1
	}
	cube := [][]float64{make([]float64, 256), make([]float64, 256), make([]float64, 256)}
	// 16 node-valued stages of 4096 values: a 131 KB body, under every
	// payload cap, describing 15·4096² ≈ 2.5e8 transitions.
	deepValues := make([][]float64, 16)
	for i := range deepValues {
		deepValues[i] = make([]float64, 4096)
	}
	jobs := func(n, p, d int) File {
		f := File{Problem: "knapsack", Proc: make([]int, n), Due: make([]int, n), Weights: make([]float64, n)}
		for i := range f.Proc {
			f.Proc[i], f.Due[i] = p, d
		}
		return f
	}
	cases := []struct {
		name    string
		f       File
		atBuild bool // the work ceiling, not a payload cap, rejects it
	}{
		{"wide-stage", File{Problem: "graph", Costs: [][][]float64{{bigRow}}}, false},
		{"many-dims", File{Problem: "chain", Dims: manyDims}, false},
		{"long-series", File{Problem: "dtw", X: longSeries, Y: []float64{0}}, false},
		{"dtw-lattice", File{Problem: "dtw", X: x, Y: y}, true},
		{"align-lattice", File{Problem: "align", X: x, Y: y[:1365], GapOpen: 2, GapExtend: 1}, true},
		{"chain-updates", File{Problem: "chain", Dims: longChain}, true},
		{"nonserial-steps", File{Problem: "nonserial", Domains: cube}, true},
		{"nodevalued-transitions", File{Problem: "nodevalued", Values: deepValues, Cost: "absdiff"}, true},
		{"knapsack-table", jobs(16, MaxSpecHorizon, MaxSpecHorizon), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if !tc.atBuild {
				if err == nil {
					t.Fatal("Validate() = nil, want rejection")
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate() = %v, want the payload caps to pass", err)
			}
			_, err = tc.f.Build()
			if err == nil || !strings.HasPrefix(err.Error(), "spec: "+tc.f.Problem+" problem needs ") ||
				!strings.Contains(err.Error(), "work units") {
				t.Fatalf("Build() = %v, want a work-ceiling rejection naming %s and its units", err, tc.f.Problem)
			}
		})
	}
}

func TestValidateAcceptsNormalSpecs(t *testing.T) {
	ok := []string{
		`{"problem":"graph","design":1,"costs":[[[1,2]],[[3],[4]]]}`,
		`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`,
		`{"problem":"dtw","x":[0,1,2,3],"y":[0,1,1,2,3]}`,
		`{"problem":"nodevalued","values":[[10,20],[15,25]],"cost":"absdiff"}`,
		`{"problem":"nonserial","domains":[[1,2],[1,2],[1,2]],"cost":"span"}`,
		// A field that is null as a whole is absent.
		`{"problem":"chain","dims":[2,3],"x":null,"costs":null}`,
		// The largest problems the work ceiling admits with a 4096-long
		// series: dtw 4096 x 4095 cells, and align 4096 x 1364, exactly
		// MaxSpecElems units (three per cell).
		`{"problem":"dtw","x":` + zeros(4096) + `,"y":` + zeros(4095) + `}`,
		`{"problem":"align","x":` + zeros(4096) + `,"y":` + zeros(1364) + `,"gapopen":2,"gapext":1}`,
		// The longest chain and a three-domain nonserial chain at the
		// ceiling.
		`{"problem":"chain","dims":` + ones(464) + `}`,
		`{"problem":"nonserial","domains":[` + zeros(256) + `,` + zeros(256) + `,` + zeros(255) + `]}`,
	}
	for _, in := range ok {
		f, err := Decode([]byte(in))
		if err != nil {
			t.Fatalf("Decode(%.80s): %v", in, err)
		}
		if _, err := f.Build(); err != nil {
			t.Fatalf("Build(%.80s): %v", in, err)
		}
	}
}

// zeros renders a JSON array of n zeros.
func zeros(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("0,", n), ",") + "]"
}

// ones renders a JSON array of n ones.
func ones(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]"
}
