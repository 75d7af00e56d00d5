package dtw

// The zero-allocation cache-tiled DTW kernel. Three gaps between the
// paper's fixed-function PEs and the Go engines are closed here:
//
//   - dispatch: the sample distance is a generic value-type Metric, so
//     the per-cell d(x_i, y_j) call monomorphizes and inlines — no func
//     or interface indirection in the O(n·m) inner loop;
//   - allocation: lattice storage lives in a per-shape pooled Workspace
//     (internal/arena), checked out per solve and returned only on the
//     clean path, so steady-state same-shape solves allocate nothing;
//   - locality: the lattice is blocked into T×T tiles swept in wavefront
//     order. Cell dependencies cross tile borders only through the
//     bottom row of each tile-row (hb, nI×m values) and the right column
//     of each tile-column (vb, nJ×n values), so the working set per tile
//     is 3 tile edges + the T×T tile itself instead of two full lattice
//     rows of a potentially huge m. Tiles on one anti-diagonal are
//     independent — the same wavefront the paper's array exploits — and
//     large lattices fan the diagonal across the shared tile.Pool.
//
// Every cell evaluates EXACTLY Sequential's float64 expression (same
// math.Min nesting, same boundary cases) in a dependency-respecting
// order; DTW's min-plus recurrence has no cross-cell reassociation, so
// results are bitwise identical to Sequential at every tile size. The
// differential checker pins this at T ∈ {1, 7, 64, full}.

import (
	"fmt"
	"math"

	"systolicdp/internal/arena"
	"systolicdp/internal/tile"
)

// Metric is the monomorphizable sample-distance constraint: implemented
// by zero-size op structs so the generic kernels inline the call.
type Metric interface {
	Dist(a, b float64) float64
}

// AbsMetric is AbsDist as an inlinable value type.
type AbsMetric struct{}

// Dist returns |a-b|.
func (AbsMetric) Dist(a, b float64) float64 { return AbsDist(a, b) }

// SqMetric is SqDist as an inlinable value type.
type SqMetric struct{}

// Dist returns (a-b)^2.
func (SqMetric) Dist(a, b float64) float64 { return SqDist(a, b) }

// FuncMetric adapts an arbitrary Dist func to the Metric constraint —
// the fallback when the distance is not one of the named serving
// metrics; it keeps one indirect call per cell, exactly the old cost.
type FuncMetric struct{ F Dist }

// Dist calls the wrapped function.
func (m FuncMetric) Dist(a, b float64) float64 { return m.F(a, b) }

// DefaultTile is the default tile edge: a 64×64 float64 tile is 32 KiB,
// which together with its three border edges sits inside a typical L1
// data cache (see docs/tiling.md for the ablation).
const DefaultTile = 64

// parallelMinCells gates the wavefront fan-out: below this much work per
// lattice the barrier overhead exceeds the win and the sweep stays
// inline on the caller.
const parallelMinCells = 1 << 16

// Workspace is the pooled per-shape lattice storage.
type Workspace struct {
	hb, vb []float64 // tile border rows (nI×m) and columns (nJ×n)
	tiles  []float64 // per-lane rolling-diagonal buffers, Workers()·3·T
	job    any       // reusable tile job (per Metric instantiation)
}

type shapeKey struct{ n, m int }

var wsPool = arena.NewKeyed[shapeKey](func() *Workspace { return new(Workspace) })

// SolveFast computes the DTW distance with the tiled monomorphized
// kernel at the default tile size, using a pooled per-shape workspace.
// Bitwise identical to Sequential(x, y, d). A nil d selects AbsDist via
// its inlinable op (the serving path's metric).
func SolveFast(x, y []float64, d Dist) (float64, error) {
	if d == nil {
		return solveFast(x, y, AbsMetric{}, DefaultTile)
	}
	return solveFast(x, y, FuncMetric{d}, DefaultTile)
}

// SolveTiled is SolveFast with an explicit tile size (T <= 0 selects the
// default, T larger than the lattice degenerates to one tile): the knob
// the differential checker and the tiling ablation sweep.
func SolveTiled(x, y []float64, d Dist, T int) (float64, error) {
	if d == nil {
		return solveFast(x, y, AbsMetric{}, T)
	}
	return solveFast(x, y, FuncMetric{d}, T)
}

func solveFast[M Metric](x, y []float64, met M, T int) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty series")
	}
	key := shapeKey{len(x), len(y)}
	ws := wsPool.Get(key)
	v := solveTiled(x, y, met, T, ws, tile.Default())
	// Clean completion only — a panicking solve drops ws (arena
	// poisoning discipline).
	wsPool.Put(key, ws)
	return v, nil
}

// dtwJob carries one tile anti-diagonal across the worker pool; it lives
// in the Workspace so steady-state sweeps allocate nothing.
type dtwJob[M Metric] struct {
	x, y  []float64
	met   M
	ws    *Workspace
	T     int
	d, lo int // current diagonal index and its lowest tile-row
}

func (j *dtwJob[M]) Do(slot, k int) {
	I := j.lo + k
	J := j.d - I
	buf := j.ws.tiles[slot*3*j.T : (slot+1)*3*j.T]
	dtwTile(j.x, j.y, j.met, j.T, I, J, j.ws.hb, j.ws.vb, buf)
}

// solveTiled runs the blocked sweep. ws is grown to shape; pl supplies
// the wavefront lanes (nil or width 1 keeps the sweep inline).
func solveTiled[M Metric](x, y []float64, met M, T int, ws *Workspace, pl *tile.Pool) float64 {
	n, m := len(x), len(y)
	if T <= 0 {
		T = DefaultTile
	}
	if T > n && T > m {
		T = max(n, m)
	}
	nI := (n + T - 1) / T
	nJ := (m + T - 1) / T
	ws.hb = arena.Floats(ws.hb, nI*m)
	ws.vb = arena.Floats(ws.vb, nJ*n)
	lanes := pl.Workers()
	par := lanes > 1 && nI > 1 && nJ > 1 && n*m >= parallelMinCells
	if !par {
		lanes = 1
	}
	ws.tiles = arena.Floats(ws.tiles, lanes*3*T)
	if !par {
		// Row-major over the tile grid respects every dependency and is
		// the cache-friendliest order for one lane.
		buf := ws.tiles[:3*T]
		for I := 0; I < nI; I++ {
			for J := 0; J < nJ; J++ {
				dtwTile(x, y, met, T, I, J, ws.hb, ws.vb, buf)
			}
		}
		return ws.hb[(nI-1)*m+m-1]
	}
	job, _ := ws.job.(*dtwJob[M])
	if job == nil {
		job = new(dtwJob[M])
		ws.job = job
	}
	job.x, job.y, job.met, job.ws, job.T = x, y, met, ws, T
	for d := 0; d < nI+nJ-1; d++ {
		lo := max(0, d-nJ+1)
		hi := min(nI-1, d)
		job.d, job.lo = d, lo
		pl.Run(hi-lo+1, job)
	}
	job.x, job.y = nil, nil // don't pin caller series in the pool
	return ws.hb[(nI-1)*m+m-1]
}

// dtwTile fills tile (I, J) of the blocked lattice: rows i0..i1, cols
// j0..j1, reading its north border from hb[I-1], west border from
// vb[J-1], the NW corner from hb[I-1][j0-1], and publishing its own
// south row into hb[I] and east column into vb[J]. buf is the caller's
// private 3·T rolling-diagonal scratch.
func dtwTile[M Metric](x, y []float64, met M, T, I, J int, hb, vb, buf []float64) {
	n, m := len(x), len(y)
	i0 := I * T
	i1 := min(i0+T, n) - 1
	j0 := J * T
	j1 := min(j0+T, m) - 1
	w := j1 - j0 + 1
	var hbPrev, vbPrev []float64
	if I > 0 {
		hbPrev = hb[(I-1)*m : I*m]
	}
	if J > 0 {
		vbPrev = vb[(J-1)*n : J*n]
	}
	h := i1 - i0 + 1
	xs := x[i0 : i1+1]
	ys := y[j0 : j1+1]
	// The tile itself is swept by anti-diagonals — the paper's wavefront,
	// which is also the ILP-friendly software order: cells on one
	// diagonal have no dependency chain between them, so the CPU overlaps
	// their min-plus updates, where a row-major order would serialize on
	// the left neighbour. Three rolling diagonal registers of length h
	// (buf carries all three, 3·T floats) are the only state.
	prev2 := buf[0:h]
	prev := buf[h : 2*h]
	cur := buf[2*h : 3*h]
	hbOut := hb[I*m : I*m+m]
	vbOut := vb[J*n : J*n+n]
	for t := 0; t < h+w-1; t++ {
		lo := t - w + 1
		if lo < 0 {
			lo = 0
		}
		hi := t
		if hi > h-1 {
			hi = h - 1
		}
		// Edge cell ii == hi when jj == 0 (t < h): reads the west border.
		// Edge cell ii == 0 (lo == 0): reads the north border. Both peeled
		// so the interior loop is branch-free.
		ia, ib := lo, hi // interior range [ia, ib]
		if lo == 0 {
			ia = 1
			jj := t
			c := met.Dist(xs[0], ys[jj])
			var v float64
			switch {
			case i0 == 0 && j0+jj == 0: // lattice origin
				v = c
			case i0 == 0: // lattice top row: left neighbour only
				if jj > 0 {
					v = c + prev[0]
				} else {
					v = c + vbPrev[0]
				}
			case j0+jj == 0: // lattice west column: up neighbour only
				v = c + hbPrev[0]
			default:
				var up, left, diag float64
				if jj > 0 {
					up = hbPrev[j0+jj]
					left = prev[0]
					diag = hbPrev[j0+jj-1]
				} else { // tile NW corner (i0 > 0, j0 > 0)
					up = hbPrev[j0]
					left = vbPrev[i0]
					diag = hbPrev[j0-1]
				}
				v = c + math.Min(up, math.Min(left, diag))
			}
			cur[0] = v
			if h == 1 {
				hbOut[j0+jj] = v
			}
			if jj == w-1 {
				vbOut[i0] = v
			}
		}
		if t > 0 && t < h { // edge cell (ii = t, jj = 0)
			ib = t - 1
			ii := t
			c := met.Dist(xs[ii], ys[0])
			var v float64
			if j0 == 0 { // lattice west column: up neighbour only
				v = c + prev[ii-1]
			} else {
				up := prev[ii-1]
				left := vbPrev[i0+ii]
				diag := vbPrev[i0+ii-1] // D(i-1, j0-1): west border, one row up
				v = c + math.Min(up, math.Min(left, diag))
			}
			cur[ii] = v
			if ii == h-1 {
				hbOut[j0] = v
			}
			if w == 1 {
				vbOut[i0+ii] = v
			}
		}
		for ii := ia; ii <= ib; ii++ {
			// Pure interior: both neighbours inside the tile's previous
			// diagonals. jj = t - ii >= 1 and ii >= 1 here.
			c := met.Dist(xs[ii], ys[t-ii])
			v := c + math.Min(prev[ii-1], math.Min(prev[ii], prev2[ii-1]))
			cur[ii] = v
			if ii == h-1 {
				hbOut[j0+t-ii] = v
			}
			if t-ii == w-1 {
				vbOut[i0+ii] = v
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
}
