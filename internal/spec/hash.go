package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Canonical returns a normalized copy of the spec suitable for hashing:
// only the fields relevant to the problem kind are kept, and defaulted
// cost names are made explicit. Two specs that Build the same problem —
// e.g. a nodevalued spec with and without the implicit "absdiff" cost, or
// a chain spec carrying a stray values field — canonicalize identically.
func (f *File) Canonical() *File {
	c := &File{Problem: f.Problem}
	switch f.Problem {
	case "graph":
		c.Design = f.Design
		c.Costs = f.Costs
	case "nodevalued":
		c.Values = f.Values
		c.Cost = f.Cost
		if c.Cost == "" {
			c.Cost = "absdiff"
		}
	case "chain":
		c.Dims = f.Dims
	case "nonserial":
		c.Domains = f.Domains
		c.Cost = f.Cost
		if c.Cost == "" {
			c.Cost = "default"
		}
	case "dtw":
		c.X = f.X
		c.Y = f.Y
	case "align":
		c.X = f.X
		c.Y = f.Y
		c.GapOpen = f.GapOpen
		c.GapExtend = f.GapExtend
	case "viterbi":
		c.Values = f.Values
		c.Costs = f.Costs
	case "knapsack":
		c.Proc = f.Proc
		c.Due = f.Due
		c.Weights = f.Weights
	default:
		// Unknown kinds keep everything so distinct inputs stay distinct.
		cc := *f
		c = &cc
	}
	return c
}

// Hash returns the canonical cache key for the spec: the hex SHA-256 of
// the compact JSON encoding of Canonical(). Marshal determinism (stable
// field order, stable float formatting) makes this a function of the
// problem the spec describes rather than of its textual formatting.
func (f *File) Hash() (string, error) {
	data, err := json.Marshal(f.Canonical())
	if err != nil {
		return "", fmt.Errorf("spec: hash: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
