// Package dnc implements Section 4 of the paper: evaluating a
// polyadic-serial DP problem — a string of N m x m matrices — by a
// parallel divide-and-conquer algorithm on K processors (each processor a
// matrix-multiplication systolic array), together with the paper's
// analytic machinery:
//
//   - the exact completion-time model of equation (29),
//     T = floor((N-1)/K)*T1 + floor(log2(N + K - 1 - K*floor((N-1)/K)))*T1,
//     whose KT^2 curve is Figure 6;
//   - the asymptotic processor-utilization limits of Proposition 1
//     (equation (17));
//   - the AT^2 lower bound of Theorem 1, minimised at S(N) = Theta(N/log2 N);
//   - a discrete-event list-scheduling simulator of the binary AND-tree
//     that cross-checks the analytic model and actually multiplies the
//     matrices (goroutine workers model the systolic arrays).
package dnc

import (
	"fmt"
	"math"
	"sort"
)

// TimeEq29 evaluates equation (29): the total time, in units of T1 (the
// time one systolic array needs for one matrix-matrix product), to
// multiply a string of n matrices with k processors: the computation phase
// floor((n-1)/k) plus the wind-down phase floor(log2(n+k-1-k*floor((n-1)/k))).
func TimeEq29(n, k int) float64 {
	if n < 1 || k < 1 {
		return math.NaN()
	}
	if n == 1 {
		return 0
	}
	tc := math.Floor(float64(n-1) / float64(k))
	rem := float64(n) + float64(k) - 1 - float64(k)*tc
	tw := 0.0
	if rem > 1 {
		tw = math.Floor(math.Log2(rem))
	}
	return tc + tw
}

// KT2Eq29 evaluates K * T^2 with T from equation (29), the quantity
// plotted in Figure 6.
func KT2Eq29(n, k int) float64 {
	t := TimeEq29(n, k)
	return float64(k) * t * t
}

// KT2Point is one point on the Figure 6 curve.
type KT2Point struct {
	K   int
	T   float64
	KT2 float64
}

// SweepKT2 evaluates equation (29) for k in [kmin, kmax] and returns the
// curve, reproducing Figure 6 for n = 4096.
func SweepKT2(n, kmin, kmax int) []KT2Point {
	pts := make([]KT2Point, 0, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		t := TimeEq29(n, k)
		pts = append(pts, KT2Point{K: k, T: t, KT2: float64(k) * t * t})
	}
	return pts
}

// ArgminKT2 returns every k in [kmin, kmax] attaining the minimum KT^2 of
// equation (29) — the paper reports 431 and 465 for N = 4096 — along with
// the minimum value.
func ArgminKT2(n, kmin, kmax int) (ks []int, min float64) {
	min = math.Inf(1)
	for k := kmin; k <= kmax; k++ {
		v := KT2Eq29(n, k)
		switch {
		case v < min-1e-9:
			min = v
			ks = []int{k}
		case math.Abs(v-min) <= 1e-9:
			ks = append(ks, k)
		}
	}
	return ks, min
}

// OptimalGranularity returns the paper's optimal processor count
// N/log2(N), the granularity attaining the AT^2 lower bound of Theorem 1.
func OptimalGranularity(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Round(float64(n) / math.Log2(float64(n))))
}

// PUAnalytic is the processor utilization implied by equation (29):
// useful work (N-1 products) over K * T.
func PUAnalytic(n, k int) float64 {
	t := TimeEq29(n, k)
	if t <= 0 {
		return 1
	}
	return float64(n-1) / (float64(k) * t)
}

// ScheduleStats reports a simulated divide-and-conquer run.
type ScheduleStats struct {
	N, K        int
	Time        int     // completion time in units of T1
	Busy        int     // total busy processor-steps (= N-1 products)
	PU          float64 // Busy / (K * Time)
	KT2         float64
	WindDown    int // steps during which some processor idled for lack of work
	Computation int // steps with all processors busy
}

// Schedule simulates level-by-level greedy scheduling of the complete
// binary multiplication tree of a string of n matrices on k processors:
// each time step, up to k ready products (pairs of adjacent completed
// partial products) are evaluated. It returns the completion statistics;
// the resulting time is compared against equation (29) in the tests and
// experiments.
func Schedule(n, k int) (*ScheduleStats, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("dnc: need n >= 1 and k >= 1, have n=%d k=%d", n, k)
	}
	st := &ScheduleStats{N: n, K: k}
	if n == 1 {
		st.PU = 1
		return st, nil
	}
	// The work list holds the sizes (leaf counts) of the current adjacent
	// segments; each step merges up to k adjacent pairs, preferring the
	// deepest subtrees first (greedy longest-processing-time is not needed
	// since all products cost T1; pairing left to right matches the
	// balanced tree's level order when segments are equal).
	segs := make([]int, n)
	for i := range segs {
		segs[i] = 1
	}
	for len(segs) > 1 {
		merges := len(segs) / 2
		if merges > k {
			merges = k
		}
		// Merge the `merges` leftmost disjoint adjacent pairs.
		next := make([]int, 0, len(segs)-merges)
		i := 0
		for done := 0; done < merges; done++ {
			next = append(next, segs[i]+segs[i+1])
			i += 2
		}
		next = append(next, segs[i:]...)
		segs = next
		st.Time++
		st.Busy += merges
		if merges == k {
			st.Computation++
		} else {
			st.WindDown++
		}
	}
	st.PU = float64(st.Busy) / (float64(k) * float64(st.Time))
	st.KT2 = float64(k) * float64(st.Time) * float64(st.Time)
	return st, nil
}

// PUAsymptotic evaluates the measured PU for k(N) = c * N/log2(N)
// processors at the given N, for comparison against the limit of
// Proposition 1 (equation (17)): 1/(1+c).
func PUAsymptotic(n int, c float64) (float64, error) {
	k := int(math.Max(1, math.Round(c*float64(n)/math.Log2(float64(n)))))
	st, err := Schedule(n, k)
	if err != nil {
		return 0, err
	}
	return st.PU, nil
}

// GranularityRow is one row of the Theorem-1 experiment: a processor-count
// policy and its S*T^2.
type GranularityRow struct {
	Policy string
	S      int
	T      float64
	AT2    float64
}

// TheoremOneTable evaluates S*T^2 for the processor-count policies the
// theorem contrasts: sqrt(N), N/log2(N) (optimal), N/4, and N.
func TheoremOneTable(n int) []GranularityRow {
	policies := []struct {
		name string
		s    int
	}{
		{"sqrt(N)", int(math.Round(math.Sqrt(float64(n))))},
		{"N/log2(N)", OptimalGranularity(n)},
		{"N/4", n / 4},
		{"N", n},
	}
	rows := make([]GranularityRow, 0, len(policies))
	for _, p := range policies {
		if p.s < 1 {
			p.s = 1
		}
		t := TimeEq29(n, p.s)
		rows = append(rows, GranularityRow{Policy: p.name, S: p.s, T: t, AT2: float64(p.s) * t * t})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].S < rows[j].S })
	return rows
}
