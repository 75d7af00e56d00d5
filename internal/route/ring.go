// Package route is the horizontal scale-out tier: a thin HTTP router
// that shards canonical spec hashes across N dpserve replicas with a
// consistent-hash ring, so each replica's LRU cache and singleflight
// stay shard-local.
//
// The design transposes the paper's systolic discipline to the cluster:
// scale comes from composing many small identical processing units —
// here, identical dpserve replicas — behind a fixed, deterministic
// mapping of work onto units, not from making any single unit cleverer.
// The ring is that mapping: a pure function from spec hash to replica,
// stable across router restarts and minimally perturbed by membership
// change (≈1/N of keys move when a replica joins or leaves), which is
// exactly the property that keeps per-key cache affinity intact while
// the replica set evolves.
//
// The router does three things per request: find the body's canonical
// spec.File hash, place the hash on the ring over healthy replicas, and
// forward with the remaining deadline propagated via the X-Deadline-Ms
// header. The hash needs a decode only the first time the router sees
// a body's bytes: it remembers the hash and the hash's ring point under
// the body's SHA-256 (a bounded memo of the most recent distinct
// bodies), so a repeated body is placed without a decode, a hash or a
// second digest. A forward goes straight to the Transport's RoundTrip,
// to a /solve URL parsed when its replica joined the membership, so a
// replica base that does not parse is refused there rather than failing
// forwards. Shedding is the replica's:
// its admission control prices the request against that deadline, and
// its 429 + Retry-After passes back through the router unchanged.
// Replica lifecycle is managed by a prober with ejection/readmission
// hysteresis, and membership is static or file-reloadable with graceful
// draining: a replica removed from the ring finishes its in-flight
// requests before the router lets go of it.
package route

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Ring is an immutable consistent-hash ring over a set of replica names.
// Each replica contributes vnodes virtual points, placed by SHA-256 of
// "name#i"; a key is owned by the replica of the first point clockwise
// from the key's hash. Determinism is structural: no seeds, no process
// state — two routers (or one router across restarts) built over the
// same membership map every key identically.
type Ring struct {
	points   []ringPoint // sorted by hash
	replicas []string    // distinct members, sorted
}

type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing builds a ring over the distinct non-empty replicas with the
// given virtual-node count per replica (minimum 1). Input order is
// irrelevant to the resulting mapping.
func NewRing(replicas []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{}
	seen := make(map[string]bool, len(replicas))
	for _, rep := range replicas {
		if rep == "" || seen[rep] {
			continue
		}
		seen[rep] = true
		r.replicas = append(r.replicas, rep)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", rep, i)), rep})
		}
	}
	sort.Strings(r.replicas)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnodes of different replicas are broken
		// by name so the mapping stays independent of input order.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// hash64 places a string on the ring: the first 8 bytes of its SHA-256.
// FNV and friends cluster badly on near-identical short strings (vnode
// labels differ by one digit), which skews arc lengths enough to break
// the uniformity bound; SHA-256 mixes fully and stays dependency-free
// and deterministic across processes.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len reports the number of distinct replicas on the ring.
func (r *Ring) Len() int { return len(r.replicas) }

// Replicas returns the distinct members, sorted.
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

// Lookup returns the replica owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Shares reports each replica's fraction of the key space: the summed
// arc length (to the next point clockwise, wrapping) of its vnodes,
// normalized to 1. With the default vnode count the shares land near
// 1/N; the spread that remains is the ring's real placement skew, which
// is why dptop displays this instead of assuming uniformity.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.replicas))
	if len(r.points) == 0 {
		return out
	}
	if len(r.points) == 1 {
		out[r.points[0].replica] = 1
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	// A key belongs to the first point at-or-after its hash, so each
	// point owns the arc *preceding* it (from the previous point,
	// exclusive, to itself). Unsigned wrap-around subtraction makes the
	// arc across zero come out right without a special case.
	for i, p := range r.points {
		prev := r.points[(i-1+len(r.points))%len(r.points)].hash
		out[p.replica] += float64(p.hash-prev) / whole
	}
	return out
}

// Successors returns up to n distinct replicas in ring order starting at
// key's owner. The tail entries are the key's failover targets: when the
// owner is ejected, the key's traffic moves to the next distinct replica
// clockwise — the same replica it would move to if the owner left the
// membership — so failover and resharding agree about where a key goes.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	return r.appendSuccessors(make([]string, 0, min(n, len(r.replicas))), hash64(key), n)
}

// appendSuccessors appends to out the replicas Successors returns for a
// key whose ring point is h. A key fails over across a few replicas, so
// a linear scan of what is already appended finds duplicates without a
// set, and a caller that passes a small array places a key without
// allocating.
func (r *Ring) appendSuccessors(out []string, h uint64, n int) []string {
	n = min(n, len(r.replicas))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	from := len(out)
	for i := 0; i < len(r.points) && len(out)-from < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(out[from:], p.replica) {
			out = append(out, p.replica)
		}
	}
	return out
}
