package core

import (
	"fmt"
	"testing"

	"systolicdp/internal/multistage"
)

var benchCost float64

// BenchmarkSolveGraph times the ways one Design-1 graph can be answered,
// on uniform stages × nodes graphs wrapped to one source and one sink:
// design 0's SolveOptimal with its path, the sweep Solve serves designs
// 1 and 2 with, and the streamed pipelined array (SolveGraphBatch) on
// batches of 1 and of 16 same-shape graphs. An operation is one batch,
// so stream-B16's allocs/op cover 16 graphs; ns/edge is per graph.
func BenchmarkSolveGraph(b *testing.B) {
	const batch = 16
	for _, sh := range [][2]int{{7, 6}, {21, 18}, {63, 54}} {
		gs := make([]*multistage.Graph, batch)
		for i := range gs {
			gs[i] = testGraph(int64(i+1), sh[0], sh[1])
		}
		_, edges := (&MultistageProblem{Graph: gs[0]}).Work()
		solve := func(design int) func(i int) error {
			return func(i int) error {
				sol, err := Solve(&MultistageProblem{Graph: gs[i%batch], Design: design})
				if err == nil {
					benchCost = sol.Cost
				}
				return err
			}
		}
		stream := func(n int) func(i int) error {
			return func(i int) error {
				lo := i * n % batch
				sols, err := SolveGraphBatch(gs[lo : lo+n])
				if err == nil {
					benchCost = sols[0].Cost
				}
				return err
			}
		}
		for _, c := range []struct {
			name  string
			per   int
			solve func(i int) error
		}{
			{"optimal", 1, solve(0)},
			{"sweep", 1, solve(1)},
			{"stream-B1", 1, stream(1)},
			{"stream-B16", batch, stream(batch)},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh[0], sh[1], c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.solve(i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.per)/edges, "ns/edge")
			})
		}
	}
}
