package matchain

// The zero-allocation flat matrix-chain kernel. DP's [][]-of-rows tables
// cost one allocation per row and an indirection per cell read; the hot
// inner loop also walks Cost[k+1][j] down a column, a stride-n access
// pattern on row-major storage. Flat fixes both: Cost, its transpose
// CostT, and Split live in three flat arrays grown in place, so the
// k-scan of cell (i, j) reads row i of Cost and column j of CostT, both
// stride-1, and a reused Flat performs no allocations at all.
//
// Every cell evaluates EXACTLY DP's float64 expression — the additive
// constant keeps the single-rounding int product float64(d_i*d_{k+1}*
// d_{j+1}), the k scan order and the strict-< argmin are unchanged — so
// Cost and Split are bitwise identical to DP. The differential checker
// pins this per cell.

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"systolicdp/internal/arena"
)

// Flat is the flat-storage DP table of equation (6): cell (i, j) of the
// n×n triangle lives at Cost[i*n+j], its mirror at CostT[j*n+i], and the
// optimal split at Split[i*n+j]. Cells below the diagonal are unused and
// hold garbage after reuse; the diagonal is zero cost, split -1.
type Flat struct {
	N     int
	Dims  []int
	Cost  []float64
	CostT []float64
	Split []int
}

// Solve fills the table for dims in place, growing the backing arrays
// only when the chain outgrows their capacity — a reused same-size Flat
// allocates nothing. Bitwise identical to DP.
func (f *Flat) Solve(dims []int) error {
	n, err := validDims(dims)
	if err != nil {
		return err
	}
	f.N = n
	f.Dims = arena.Ints(f.Dims, len(dims))
	copy(f.Dims, dims)
	f.Cost = arena.Floats(f.Cost, n*n)
	f.CostT = arena.Floats(f.CostT, n*n)
	f.Split = arena.Ints(f.Split, n*n)
	for i := 0; i < n; i++ {
		f.Cost[i*n+i] = 0
		f.CostT[i*n+i] = 0
		f.Split[i*n+i] = -1
	}
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			best, arg := math.Inf(1), -1
			rowI := f.Cost[i*n : i*n+n]  // rowI[k] = Cost[i][k]
			colJ := f.CostT[j*n : j*n+n] // colJ[k] = Cost[k][j]
			di, dj1 := dims[i], dims[j+1]
			for k := i; k < j; k++ {
				c := rowI[k] + colJ[k+1] + float64(di*dims[k+1]*dj1)
				if c < best {
					best, arg = c, k
				}
			}
			f.Cost[i*n+j] = best
			f.CostT[j*n+i] = best
			f.Split[i*n+j] = arg
		}
	}
	return nil
}

// DPFlat solves equation (6) into a fresh flat table: the allocating
// entry point (the differential checker's handle on the kernel).
func DPFlat(dims []int) (*Flat, error) {
	f := new(Flat)
	if err := f.Solve(dims); err != nil {
		return nil, err
	}
	return f, nil
}

// OptimalCost returns m_{1,N}, the cost of the best ordering.
func (f *Flat) OptimalCost() float64 { return f.Cost[f.N-1] }

// Parenthesization renders the optimal order exactly like
// Table.Parenthesization, e.g. "((M1 M2)(M3 M4))", into one buffer
// sized up front.
func (f *Flat) Parenthesization() string {
	var b strings.Builder
	b.Grow(parenLen(f.N))
	f.writeOrder(&b, 0, f.N-1)
	return b.String()
}

// parenLen is the length of an n-matrix parenthesization: an "M" and
// its index per leaf, and "(", " " and ")" per product.
func parenLen(n int) int {
	size := n + 3*(n-1)
	// Every index from p up has a digit in p's place.
	for p := 1; p <= n; p *= 10 {
		size += n - p + 1
	}
	return size
}

// writeOrder writes the order of matrices i..j.
func (f *Flat) writeOrder(b *strings.Builder, i, j int) {
	if i == j {
		var digits [20]byte
		b.WriteByte('M')
		b.Write(strconv.AppendInt(digits[:0], int64(i+1), 10))
		return
	}
	k := f.Split[i*f.N+j]
	b.WriteByte('(')
	f.writeOrder(b, i, k)
	b.WriteByte(' ')
	f.writeOrder(b, k+1, j)
	b.WriteByte(')')
}

var flatPool = sync.Pool{New: func() any { return new(Flat) }}

// SolveFast solves one chain on a pooled flat table and returns the
// optimal cost and parenthesization — the serving path's single-solve
// kernel. Only the returned string allocates once the pooled table has
// grown to the chain's length.
func SolveFast(dims []int) (cost float64, paren string, err error) {
	f := flatPool.Get().(*Flat)
	if err := f.Solve(dims); err != nil {
		return 0, "", err
	}
	cost = f.OptimalCost()
	paren = f.Parenthesization()
	flatPool.Put(f) // clean completion only (arena discipline)
	return cost, paren, nil
}
