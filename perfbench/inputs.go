package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"systolicdp/internal/core"
	"systolicdp/internal/spec"
)

// wireSpec is the /solve request body, written out field by field so the
// bytes a seed produces depend only on this file: a later change to the
// program's own spec types or to its check generator cannot shift the
// benchmark's inputs between the two commits being compared.
type wireSpec struct {
	Problem   string        `json:"problem"`
	Design    int           `json:"design,omitempty"`
	Costs     [][][]float64 `json:"costs,omitempty"`
	Values    [][]float64   `json:"values,omitempty"`
	Cost      string        `json:"cost,omitempty"`
	Dims      []int         `json:"dims,omitempty"`
	Domains   [][]float64   `json:"domains,omitempty"`
	X         []float64     `json:"x,omitempty"`
	Y         []float64     `json:"y,omitempty"`
	GapOpen   float64       `json:"gapopen,omitempty"`
	GapExtend float64       `json:"gapext,omitempty"`
	Proc      []int         `json:"proc,omitempty"`
	Due       []int         `json:"due,omitempty"`
	Weights   []float64     `json:"weights,omitempty"`
}

// kinds are the eight served problem kinds, in the order the per-layer
// kernel metrics are listed.
var kinds = []string{"graph", "nodevalued", "dtw", "align", "viterbi", "knapsack", "chain", "nonserial"}

func kindIndex(kind string) int {
	for i, k := range kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// input is one request body and its problem kind.
type input struct {
	kind int
	body []byte
}

// between draws an integer in [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// series draws n integer-valued weights in [lo, hi]. Integer weights keep
// every engine's sums exact in any association order, so answers can be
// compared bit for bit.
func series(rng *rand.Rand, n, lo, hi int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(between(rng, lo, hi))
	}
	return xs
}

func matrix(rng *rand.Rand, rows, cols, lo, hi int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = series(rng, cols, lo, hi)
	}
	return m
}

// sizer draws the size parameters of one kind's specs in a pool, by
// strata: over the kind's n specs, each parameter takes one value from
// each of n equal slices of its range. Which slices of two parameters
// meet in one spec is fixed, not seeded, because a spec's work grows
// with the product of its sizes. The sizes a pool holds, and with them
// the work it carries, then barely move with the seed; the seed picks
// the point inside each slice, the values inside the specs and the
// order of the pool.
type sizer struct {
	rng   *rand.Rand
	n, i  int           // the kind's specs in the pool; the one being drawn
	perms map[int][]int // per parameter: the slice each spec draws from
}

// size draws parameter param of spec i in [lo, hi].
func (s *sizer) size(param, lo, hi int) int {
	p, ok := s.perms[param]
	if !ok {
		p = rand.New(rand.NewSource(int64(param) + 1)).Perm(s.n)
		s.perms[param] = p
	}
	width := float64(hi-lo+1) / float64(s.n)
	return lo + int((float64(p[s.i])+s.rng.Float64())*width)
}

// half is true for every other spec: a two-way choice that changes a
// spec's work, taken by half the kind's specs whatever the seed.
func (s *sizer) half() bool { return s.i%2 == 0 }

// genSmall draws one mix-small spec of the given kind at the check
// generator's default bounds times three (dpload -scale 3): at most 21
// stages of 18 nodes, series of 36 points, chains of 24 matrices and
// nonserial chains of 18 variables.
func genSmall(rng *rand.Rand, kind string, sz *sizer) wireSpec {
	switch kind {
	case "graph":
		// A uniform Design-1 graph wrapped to a single source and sink.
		n, m := sz.size(0, 2, 21), sz.size(1, 1, 18)
		costs := [][][]float64{matrix(rng, 1, m, -99, 99)}
		for k := 0; k+1 < n; k++ {
			costs = append(costs, matrix(rng, m, m, -99, 99))
		}
		costs = append(costs, matrix(rng, m, 1, -99, 99))
		return wireSpec{Problem: "graph", Design: 1, Costs: costs}
	case "nodevalued":
		n, m := sz.size(0, 2, 21), sz.size(1, 1, 18)
		return wireSpec{Problem: "nodevalued", Values: matrix(rng, n, m, -50, 50), Cost: pairCost(rng)}
	case "dtw":
		return wireSpec{Problem: "dtw", X: series(rng, sz.size(0, 1, 36), -99, 99), Y: series(rng, sz.size(1, 1, 36), -99, 99)}
	case "align":
		return genAlign(rng, sz, 1, 36)
	case "viterbi":
		n, m := sz.size(0, 2, 21), sz.size(1, 1, 18)
		uniform := sz.half()
		sizes := make([]int, n)
		for k := range sizes {
			sizes[k] = m
			if !uniform {
				sizes[k] = between(rng, 1, 18)
			}
		}
		values := make([][]float64, n)
		trans := make([][][]float64, n-1)
		for k := range values {
			values[k] = series(rng, sizes[k], -99, 99)
			if k+1 < n {
				trans[k] = matrix(rng, sizes[k], sizes[k+1], -99, 99)
			}
		}
		return wireSpec{Problem: "viterbi", Values: values, Costs: trans}
	case "knapsack":
		n := sz.size(0, 1, 8)
		f := wireSpec{Problem: "knapsack", Proc: make([]int, n), Due: make([]int, n), Weights: make([]float64, n)}
		for i := 0; i < n; i++ {
			f.Proc[i], f.Due[i], f.Weights[i] = between(rng, 0, 5), between(rng, 0, 15), float64(between(rng, 0, 9))
		}
		return f
	case "chain":
		return wireSpec{Problem: "chain", Dims: dims(rng, sz.size(0, 1, 24)+1, 30)}
	default: // nonserial
		n, m := sz.size(0, 3, 18), sz.size(1, 1, 4)
		uniform := sz.half()
		domains := make([][]float64, n)
		for i := range domains {
			size := m
			if !uniform {
				size = between(rng, 1, 4)
			}
			domains[i] = series(rng, size, -20, 20)
		}
		cost := "default"
		if rng.Intn(2) == 0 {
			cost = "span"
		}
		return wireSpec{Problem: "nonserial", Domains: domains, Cost: cost}
	}
}

// largeKinds are the compute-large kinds: those whose work grows faster
// than their payload.
var largeKinds = []string{"dtw", "align", "chain", "nodevalued"}

// genLarge draws one compute-large spec of the given kind, sized so the
// kernel dominates the request: dtw and align lattices of 400–1000
// points a side, chains of 80–160 matrices, and node-valued problems of
// 50–100 stages × 25–50 values.
func genLarge(rng *rand.Rand, kind string, sz *sizer) wireSpec {
	switch kind {
	case "dtw":
		return wireSpec{Problem: "dtw", X: series(rng, sz.size(0, 400, 1000), -999, 999), Y: series(rng, sz.size(1, 400, 1000), -999, 999)}
	case "align":
		return genAlign(rng, sz, 400, 1000)
	case "chain":
		return wireSpec{Problem: "chain", Dims: dims(rng, sz.size(0, 80, 160)+1, 100)}
	default: // nodevalued
		n, m := sz.size(0, 50, 100), sz.size(1, 25, 50)
		return wireSpec{Problem: "nodevalued", Values: matrix(rng, n, m, -50, 50), Cost: pairCost(rng)}
	}
}

func genAlign(rng *rand.Rand, sz *sizer, lo, hi int) wireSpec {
	return wireSpec{
		Problem:   "align",
		X:         series(rng, sz.size(0, lo, hi), -99, 99),
		Y:         series(rng, sz.size(1, lo, hi), -99, 99),
		GapOpen:   float64(between(rng, 0, 5)),
		GapExtend: float64(between(rng, 0, 3)),
	}
}

func pairCost(rng *rand.Rand) string {
	return []string{"absdiff", "quadratic", "rise"}[rng.Intn(3)]
}

func dims(rng *rand.Rand, n, max int) []int {
	ds := make([]int, n)
	for i := range ds {
		ds[i] = between(rng, 1, max)
	}
	return ds
}

// generate draws n request bodies, the same number of each of the given
// kinds, with sizes by strata per kind, in seeded order.
func generate(rng *rand.Rand, n int, of []string, gen func(*rand.Rand, string, *sizer) wireSpec) ([]input, error) {
	out := make([]input, 0, n)
	for _, kind := range of {
		sz := &sizer{rng: rng, n: n / len(of), perms: map[int][]int{}}
		for sz.i = 0; sz.i < sz.n; sz.i++ {
			body, err := json.Marshal(gen(rng, kind, sz))
			if err != nil {
				return nil, fmt.Errorf("encode %s spec: %w", kind, err)
			}
			out = append(out, input{kind: kindIndex(kind), body: body})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// splitmix64 is a stateless hash of the request index, so the hot-routed
// draw for request i is fixed by the seed however the two clients
// interleave.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// workload is one seeded traffic mix: the pool of distinct request bodies,
// the warm-up bodies sent during set-up, and the draw from the pool for
// request i.
type workload struct {
	name     string
	replicas int  // dpserve replicas
	routed   bool // a dprouter in front of the replicas
	pool     []input
	warm     []input
	pick     func(i uint64) int
}

// Pool sizes, each a multiple of the number of kinds drawn. A cyclic pool
// larger than the 1024-entry result cache plus the two in-flight requests
// never meets a cached copy of its own specs, so every mix-small and
// compute-large request misses and inserts.
const (
	smallPool = 4096
	largePool = 1280
	hotPool   = 512
)

var workloadNames = []string{"mix-small", "compute-large", "hot-routed"}

// newWorkload builds the named workload's inputs from seed alone.
func newWorkload(name string, seed int64) (*workload, error) {
	poolRng := rand.New(rand.NewSource(seed))
	warmRng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	cyclic := func(n int) func(uint64) int {
		return func(i uint64) int { return int(i % uint64(n)) }
	}
	w := &workload{name: name, replicas: 1}
	var err error
	switch name {
	case "mix-small":
		if w.pool, err = generate(poolRng, smallPool, kinds, genSmall); err == nil {
			w.warm, err = generate(warmRng, 64, kinds, genSmall)
		}
		w.pick = cyclic(smallPool)
	case "compute-large":
		// The warm-up sends the same kinds at mix-small sizes, so set-up
		// times starting the replica rather than sixteen large solves,
		// whose length is mostly the host's speed.
		if w.pool, err = generate(poolRng, largePool, largeKinds, genLarge); err == nil {
			w.warm, err = generate(warmRng, 16, largeKinds, genSmall)
		}
		w.pick = cyclic(largePool)
	case "hot-routed":
		w.replicas, w.routed = 2, true
		w.pool, err = generate(poolRng, hotPool, kinds, genSmall)
		// One pass over the pool during set-up fills both replicas' caches.
		w.warm = w.pool
		salt := splitmix64(uint64(seed))
		w.pick = func(i uint64) int { return int(splitmix64(salt^i) % hotPool) }
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// digest is a SHA-256 over every input the workload can send: the pool,
// the warm-up set and the first n draws.
func (w *workload) digest(n int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, set := range [][]input{w.pool, w.warm} {
		for _, in := range set {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(in.body)))
			h.Write(buf[:])
			h.Write(in.body)
		}
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(w.pick(uint64(i))))
		h.Write(buf[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// answer is the part of a response the check compares: the cost bit for
// bit, plus the path or ordering where the kind returns one.
type answer struct {
	Cost     float64 `json:"cost"`
	Path     []int   `json:"path"`
	Ordering string  `json:"ordering"`
}

func (a answer) equal(b answer) bool {
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	if a.Ordering != b.Ordering || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// reference solves one body with core.Solve, the library's reference
// dispatch, outside any timed window.
func reference(body []byte) (answer, error) {
	f, err := spec.Decode(body)
	if err != nil {
		return answer{}, err
	}
	p, err := f.Build()
	if err != nil {
		return answer{}, err
	}
	sol, err := core.Solve(p)
	if err != nil {
		return answer{}, err
	}
	return answer{Cost: sol.Cost, Path: sol.Path, Ordering: sol.Ordering}, nil
}

// references solves every input on two goroutines.
func references(ins []input) ([]answer, error) {
	out := make([]answer, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	const lanes = 2
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(ins); i += lanes {
				out[i], errs[i] = reference(ins[i].body)
			}
		}(lane)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference solve of %s input %d: %w", kinds[ins[i].kind], i, err)
		}
	}
	return out, nil
}
