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
	// 4097 x 4096 is the smallest lattice past MaxSpecElems = 4096².
	x, y := make([]float64, 4097), make([]float64, 4096)
	cases := []struct {
		name string
		f    File
	}{
		{"wide-stage", File{Problem: "graph", Costs: [][][]float64{{bigRow}}}},
		{"many-dims", File{Problem: "chain", Dims: manyDims}},
		{"long-series", File{Problem: "dtw", X: longSeries, Y: []float64{0}}},
		{"dtw-lattice", File{Problem: "dtw", X: x, Y: y}},
		{"align-lattice", File{Problem: "align", X: y, Y: x, GapOpen: 2, GapExtend: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f.Validate(); err == nil {
				t.Fatal("Validate() = nil, want rejection")
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
		// The largest lattices the cap admits: 4096 x 4096 cells.
		`{"problem":"dtw","x":` + zeros(4096) + `,"y":` + zeros(4096) + `}`,
		`{"problem":"align","x":` + zeros(4096) + `,"y":` + zeros(4096) + `,"gapopen":2,"gapext":1}`,
	}
	for _, in := range ok {
		f, err := Decode([]byte(in))
		if err != nil {
			t.Fatalf("Decode(%s): %v", in, err)
		}
		if _, err := f.Build(); err != nil {
			t.Fatalf("Build(%s): %v", in, err)
		}
	}
}

// zeros renders a JSON array of n zeros.
func zeros(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("0,", n), ",") + "]"
}
