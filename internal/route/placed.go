package route

import (
	"crypto/sha256"
	"sync"
)

// placedGeneration is how many bodies one generation of the placement
// memo holds. The memo keeps two, so it remembers the last 4,096 to
// 8,192 distinct bodies it placed, about 1.9 MiB when full (Go 1.24).
const placedGeneration = 4096

// placement is what the router needs to place a body: the cache key
// File.Hash gave its spec, the key's ring point, hash64(key), from which
// the ring is searched for its owner, and its problem kind, which names
// the hop span. The point is computed once, when the body is first
// placed, so a repeat hashes only its bytes.
type placement struct {
	key, kind string
	point     uint64
}

// placements maps the SHA-256 of a body's bytes to its placement. The
// same bytes always decode to the same spec and the ring is a pure
// function of the key, so a body placed once needs no decode or hash
// again. Only bodies that decoded, validated and hashed are stored. A
// full current generation becomes the previous one, dropping the
// generation before it, and a hit in the previous generation moves
// forward, so bodies that keep coming back stay while the memo stays
// bounded.
type placements struct {
	mu        sync.Mutex
	cur, prev map[[sha256.Size]byte]placement
}

// get returns the placement of the body whose SHA-256 is sum. It
// allocates nothing.
func (p *placements) get(sum *[sha256.Size]byte) (placement, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.cur[*sum]; ok {
		return pl, true
	}
	pl, ok := p.prev[*sum]
	if ok {
		p.add(sum, pl)
	}
	return pl, ok
}

// put remembers the placement of the body whose SHA-256 is sum.
func (p *placements) put(sum *[sha256.Size]byte, pl placement) {
	p.mu.Lock()
	p.add(sum, pl)
	p.mu.Unlock()
}

// add stores into the current generation, retiring it first when it is
// full; p.mu is held.
func (p *placements) add(sum *[sha256.Size]byte, pl placement) {
	if p.cur == nil || len(p.cur) >= placedGeneration {
		p.prev, p.cur = p.cur, make(map[[sha256.Size]byte]placement, placedGeneration)
	}
	p.cur[*sum] = pl
}
