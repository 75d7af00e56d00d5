// Package bnb implements branch-and-bound search over multistage graphs —
// the paper's Section 1 observation (after Morin & Marsten and Ibaraki)
// that DP is a special case of branch-and-bound: a top-down OR-tree search
// with dominance tests. A node of the OR-tree is a partial path; the
// dominance test "two partial paths ending at the same (stage, node) —
// keep the cheaper" is exactly Bellman's principle, and with it enabled
// the number of expanded nodes collapses to the DP state count. The
// package provides best-first serial search, pluggable lower bounds, the
// dominance switch, and a parallel variant with worker goroutines sharing
// the live-node pool (the paper's reference [28], Wah, Li & Yu,
// "Multiprocessing of Combinatorial Search Problems").
package bnb

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

// Bound computes an admissible (non-overestimating) lower bound on the
// cost to complete a partial path ending at node `node` of stage `stage`.
type Bound func(g *multistage.Graph, stage, node int) float64

// BoundZero is the trivial bound (plain best-first on accumulated cost).
func BoundZero(*multistage.Graph, int, int) float64 { return 0 }

// BoundStageMin lower-bounds the remaining cost by the sum over remaining
// stages of each stage's globally cheapest edge. Admissible and cheap to
// precompute; weaker than the exact bound.
func BoundStageMin(g *multistage.Graph, stage, node int) float64 {
	total := 0.0
	for k := stage; k < len(g.Cost); k++ {
		min := math.Inf(1)
		for _, v := range g.Cost[k].Data {
			if v < min {
				min = v
			}
		}
		total += min
	}
	return total
}

// NewBoundStageMin precomputes the suffix sums of per-stage minimum edge
// costs and returns a O(1) bound function.
func NewBoundStageMin(g *multistage.Graph) Bound {
	suffix := make([]float64, len(g.Cost)+1)
	for k := len(g.Cost) - 1; k >= 0; k-- {
		min := math.Inf(1)
		for _, v := range g.Cost[k].Data {
			if v < min {
				min = v
			}
		}
		suffix[k] = suffix[k+1] + min
	}
	return func(_ *multistage.Graph, stage, _ int) float64 { return suffix[stage] }
}

// NewBoundExact precomputes the true cost-to-go by backward DP (the
// perfect heuristic): with it, best-first search expands only the optimal
// path's nodes. It exists as the other end of the bound-quality ablation.
func NewBoundExact(g *multistage.Graph) Bound {
	mp := semiring.MinPlus{}
	n := g.Stages()
	togo := make([][]float64, n)
	togo[n-1] = make([]float64, g.StageSizes[n-1])
	for k := n - 2; k >= 0; k-- {
		togo[k] = make([]float64, g.StageSizes[k])
		for i := 0; i < g.StageSizes[k]; i++ {
			acc := mp.Zero()
			for j := 0; j < g.StageSizes[k+1]; j++ {
				acc = mp.Add(acc, g.Cost[k].At(i, j)+togo[k+1][j])
			}
			togo[k][i] = acc
		}
	}
	return func(_ *multistage.Graph, stage, node int) float64 { return togo[stage][node] }
}

// Options configure a search.
type Options struct {
	// Dominance enables the DP dominance test: prune a partial path if a
	// cheaper one already reached the same (stage, node) state.
	Dominance bool
	// Bound is the admissible lower bound; nil means BoundZero.
	Bound Bound
	// Workers > 1 runs the parallel shared-pool search.
	Workers int
}

// Result of a search.
type Result struct {
	Cost     float64
	Path     []int
	Expanded int // OR-tree nodes expanded
}

// node is a partial path ending at (stage, last).
type node struct {
	stage, last int
	gcost       float64 // accumulated cost
	f           float64 // gcost + bound
	parent      *node
}

type pq []*node

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func extractPath(nd *node) []int {
	var rev []int
	for p := nd; p != nil; p = p.parent {
		rev = append(rev, p.last)
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// Solve searches g for a minimum-cost source-to-sink path (any node of
// stage 0 to any node of the final stage). With an admissible bound the
// returned cost is optimal and equals the DP solution.
func Solve(g *multistage.Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opt.Bound == nil {
		opt.Bound = BoundZero
	}
	if opt.Workers > 1 {
		return solveParallel(g, opt)
	}
	n := g.Stages()
	var q pq
	for i := 0; i < g.StageSizes[0]; i++ {
		heap.Push(&q, &node{stage: 0, last: i, f: opt.Bound(g, 0, i)})
	}
	best := make(map[[2]int]float64)
	res := &Result{Cost: math.Inf(1)}
	for q.Len() > 0 {
		nd := heap.Pop(&q).(*node)
		if nd.f >= res.Cost {
			break // admissible bound: nothing better remains
		}
		if nd.stage == n-1 {
			if nd.gcost < res.Cost {
				res.Cost = nd.gcost
				res.Path = extractPath(nd)
			}
			continue
		}
		if opt.Dominance {
			key := [2]int{nd.stage, nd.last}
			if c, ok := best[key]; ok && c <= nd.gcost {
				continue // dominated
			}
			best[key] = nd.gcost
		}
		res.Expanded++
		for j := 0; j < g.StageSizes[nd.stage+1]; j++ {
			gc := nd.gcost + g.Cost[nd.stage].At(nd.last, j)
			if math.IsInf(gc, 1) {
				continue
			}
			child := &node{stage: nd.stage + 1, last: j, gcost: gc, parent: nd}
			child.f = gc + opt.Bound(g, child.stage, j)
			if opt.Dominance {
				key := [2]int{child.stage, j}
				if c, ok := best[key]; ok && c <= gc {
					continue
				}
			}
			heap.Push(&q, child)
		}
	}
	if res.Path == nil {
		return nil, fmt.Errorf("bnb: no feasible path")
	}
	return res, nil
}

// solveParallel runs the shared-pool parallel best-first search of the
// paper's reference [28]: workers repeatedly draw the globally best live
// node, expand it, and insert children, under one lock with a condition
// variable for termination. The returned cost is optimal (admissible
// bounds); the expansion count can exhibit the acceleration/deceleration
// anomalies that reference studies, so it is reported but not
// deterministic.
func solveParallel(g *multistage.Graph, opt Options) (*Result, error) {
	n := g.Stages()
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		q        pq
		busy     int
		best     = make(map[[2]int]float64)
		res      = &Result{Cost: math.Inf(1)}
		finished bool
	)
	for i := 0; i < g.StageSizes[0]; i++ {
		heap.Push(&q, &node{stage: 0, last: i, f: opt.Bound(g, 0, i)})
	}
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for q.Len() == 0 && busy > 0 && !finished {
					cond.Wait()
				}
				if finished || (q.Len() == 0 && busy == 0) {
					finished = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				nd := heap.Pop(&q).(*node)
				if nd.f >= res.Cost {
					// Everything queued is at least as bad, so drop it. The
					// search is over only once no worker is still expanding:
					// a busy worker's children can lie on a cheaper path.
					q = q[:0]
					if busy == 0 {
						finished = true
						cond.Broadcast()
					}
					mu.Unlock()
					continue
				}
				if nd.stage == n-1 {
					if nd.gcost < res.Cost {
						res.Cost = nd.gcost
						res.Path = extractPath(nd)
					}
					cond.Broadcast()
					mu.Unlock()
					continue
				}
				if opt.Dominance {
					key := [2]int{nd.stage, nd.last}
					if c, ok := best[key]; ok && c <= nd.gcost {
						mu.Unlock()
						continue
					}
					best[key] = nd.gcost
				}
				res.Expanded++
				busy++
				stage, last, gcost := nd.stage, nd.last, nd.gcost
				mu.Unlock()

				// Expand outside the lock: compute children costs.
				type cand struct {
					j  int
					gc float64
					f  float64
				}
				var cands []cand
				for j := 0; j < g.StageSizes[stage+1]; j++ {
					gc := gcost + g.Cost[stage].At(last, j)
					if math.IsInf(gc, 1) {
						continue
					}
					cands = append(cands, cand{j, gc, gc + opt.Bound(g, stage+1, j)})
				}

				mu.Lock()
				for _, c := range cands {
					if opt.Dominance {
						key := [2]int{stage + 1, c.j}
						if bc, ok := best[key]; ok && bc <= c.gc {
							continue
						}
					}
					if c.f < res.Cost {
						heap.Push(&q, &node{stage: stage + 1, last: c.j, gcost: c.gc, f: c.f, parent: nd})
					}
				}
				busy--
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if res.Path == nil {
		return nil, fmt.Errorf("bnb: no feasible path")
	}
	return res, nil
}
