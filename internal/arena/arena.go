// Package arena holds the grow-in-place helpers and the poisoning
// discipline for the zero-allocation hot path. Each kernel that reuses
// per-solve storage (matchain.SolveFast, nonserial.EliminateFast,
// knapsack.Lockstep) keeps one package-level sync.Pool of workspaces
// and grows a checked-out workspace to the current problem with Floats
// and Ints, so a replica touches the allocator only when a problem
// outgrows every pooled workspace. A workspace grown for a large problem
// is reused for a smaller one with stale cells from the old layout, so
// every kernel writes each cell before it reads it.
//
// # Poisoning discipline
//
// A pooled workspace must be returned ONLY after a fully successful
// solve. If the solve panics, is cancelled, or errors after partially
// writing the workspace, the checkout must simply not be returned: the
// buffer is dropped and the garbage collector reclaims it. Returning a
// workspace from a failure path is a poisoning bug — the next solve
// would alias half-written state while the panicking goroutine's
// deferred handlers may still hold the same backing arrays. The kernel
// call sites therefore follow the pattern
//
//	ws := pool.Get().(*workspace)
//	v := solve(..., ws)   // may panic
//	pool.Put(ws)          // reached only on clean completion
//	return v
//
// with NO deferred Put: a panic unwinds past the Put and the workspace
// is garbage, exactly as required. TestPoisonedWorkspaceDropped in this
// package pins the discipline under the race detector.
package arena

// Floats returns buf resliced to length n, reallocating only when the
// capacity is short. Contents are NOT zeroed: callers own initialization
// (a recycled workspace carries a previous solve's values by design).
func Floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Ints is Floats for int slices.
func Ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
