package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchSpec is one request body for the wire-layer benchmarks, with the
// count of numbers it carries.
type benchSpec struct {
	name    string
	body    []byte
	numbers int
}

// benchSpecs draws one body per kind at the middle of the serving
// benchmark's mix-small ranges (stages × nodes 11 × 9, series of 18,
// chains of 12 matrices) and one per compute-large kind (series of 700,
// chains of 120 matrices, 75 × 37 node values), and 512 × 256 node
// values, a matrix field of four decode chunks (2^15 numbers each).
// Integer samples are what that benchmark sends; fractional ones take
// strconv's general path.
func benchSpecs(b *testing.B) []benchSpec {
	var out []benchSpec
	for _, frac := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		num := func(hi int) float64 {
			if frac {
				return (2*rng.Float64() - 1) * float64(hi)
			}
			return float64(rng.Intn(2*hi+1) - hi)
		}
		vec := func(n, hi int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = num(hi)
			}
			return xs
		}
		mat := func(rows, cols, hi int) [][]float64 {
			m := make([][]float64, rows)
			for i := range m {
				m[i] = vec(cols, hi)
			}
			return m
		}
		dims := func(n int) []int {
			ds := make([]int, n)
			for i := range ds {
				ds[i] = 1 + rng.Intn(100)
			}
			return ds
		}
		weights := vec(4, 9)
		for i, w := range weights {
			weights[i] = math.Abs(w)
		}
		graph := [][][]float64{mat(1, 9, 99)}
		trans := make([][][]float64, 10)
		for k := 0; k < 10; k++ {
			graph = append(graph, mat(9, 9, 99))
			trans[k] = mat(9, 9, 99)
		}
		graph = append(graph, mat(9, 1, 99))
		samples := "int"
		if frac {
			samples = "frac"
		}
		for _, c := range []struct {
			size string
			f    File
		}{
			{"small", File{Problem: "graph", Design: 1, Costs: graph}},
			{"small", File{Problem: "nodevalued", Values: mat(11, 9, 50), Cost: "absdiff"}},
			{"small", File{Problem: "dtw", X: vec(18, 99), Y: vec(18, 99)}},
			{"small", File{Problem: "align", X: vec(18, 99), Y: vec(18, 99), GapOpen: 3, GapExtend: 1}},
			{"small", File{Problem: "viterbi", Values: mat(11, 9, 99), Costs: trans}},
			{"small", File{Problem: "knapsack", Proc: dims(4), Due: dims(4), Weights: weights}},
			{"small", File{Problem: "chain", Dims: dims(13)}},
			{"small", File{Problem: "nonserial", Domains: mat(10, 3, 20), Cost: "span"}},
			{"large", File{Problem: "dtw", X: vec(700, 999), Y: vec(700, 999)}},
			{"large", File{Problem: "align", X: vec(700, 999), Y: vec(700, 999), GapOpen: 3, GapExtend: 1}},
			{"large", File{Problem: "chain", Dims: dims(121)}},
			{"large", File{Problem: "nodevalued", Values: mat(75, 37, 50), Cost: "absdiff"}},
			{"huge", File{Problem: "nodevalued", Values: mat(512, 256, 50), Cost: "absdiff"}},
		} {
			if frac && c.f.Problem == "chain" {
				continue // dims are integers either way
			}
			body, err := json.Marshal(&c.f)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, benchSpec{fmt.Sprintf("%s/%s/%s", c.size, c.f.Problem, samples), body, countNumbers(&c.f)})
		}
	}
	return out
}

func countNumbers(f *File) int {
	n := 1 + len(f.Dims) + len(f.X) + len(f.Y) + len(f.Proc) + len(f.Due) + len(f.Weights)
	for _, m := range f.Costs {
		for _, r := range m {
			n += len(r)
		}
	}
	for _, rows := range [][][]float64{f.Values, f.Domains} {
		for _, r := range rows {
			n += len(r)
		}
	}
	return n
}

func reportPerNumber(b *testing.B, s benchSpec) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.numbers), "ns/number")
}

func BenchmarkDecode(b *testing.B) {
	for _, s := range benchSpecs(b) {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(len(s.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(s.body); err != nil {
					b.Fatal(err)
				}
			}
			reportPerNumber(b, s)
		})
	}
}

func BenchmarkHash(b *testing.B) {
	for _, s := range benchSpecs(b) {
		f, err := Decode(s.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(len(s.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Hash(); err != nil {
					b.Fatal(err)
				}
			}
			reportPerNumber(b, s)
		})
	}
}
