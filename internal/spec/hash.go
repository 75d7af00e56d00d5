package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// Canonical returns a normalized copy of the spec suitable for hashing:
// only the fields relevant to the problem kind are kept, and defaulted
// cost names are made explicit. Two specs that Build the same problem —
// e.g. a nodevalued spec with and without the implicit "absdiff" cost, or
// a chain spec carrying a stray values field — canonicalize identically.
func (f *File) Canonical() File {
	k := lookup(f.Problem)
	if k == nil {
		// Unknown kinds keep everything so distinct inputs stay distinct.
		return *f
	}
	c := k.keep(f)
	c.Problem = f.Problem
	return c
}

// Hash returns the canonical cache key for the spec: the hex SHA-256 of
// json.Marshal(Canonical()), whose bytes the encoder below writes
// without reflection. Stable field order and stable float formatting
// make this a function of the problem the spec describes rather than of
// its textual formatting. A non-finite value has no JSON form and is an
// error.
func (f *File) Hash() (string, error) {
	e := encoders.Get().(*encoder)
	e.buf, e.err = e.buf[:0], nil
	c := f.Canonical()
	e.file(&c)
	sum := sha256.Sum256(e.buf)
	err := e.err
	if cap(e.buf) <= maxPooledEncoding {
		encoders.Put(e)
	}
	if err != nil {
		return "", fmt.Errorf("spec: hash: %v", err)
	}
	return hex.EncodeToString(sum[:]), nil
}

// maxPooledEncoding bounds the buffers Hash keeps for reuse, so one huge
// spec does not pin its encoding in the pool.
const maxPooledEncoding = 1 << 16

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder appends the compact JSON encoding of a File as json.Marshal
// writes it: fields in declaration order, omitempty, null for a nil
// inner slice, ES6 number formatting. It keeps the first error.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) file(f *File) {
	e.buf = append(e.buf, `{"problem":`...)
	e.str(f.Problem)
	if f.Design != 0 {
		e.buf = strconv.AppendInt(append(e.buf, `,"design":`...), int64(f.Design), 10)
	}
	if len(f.Costs) > 0 {
		e.buf = append(e.buf, `,"costs":`...)
		appendList(e, f.Costs, e.rows)
	}
	if len(f.Values) > 0 {
		e.buf = append(e.buf, `,"values":`...)
		e.rows(f.Values)
	}
	if f.Cost != "" {
		e.buf = append(e.buf, `,"cost":`...)
		e.str(f.Cost)
	}
	if len(f.Dims) > 0 {
		e.buf = append(e.buf, `,"dims":`...)
		appendList(e, f.Dims, e.int)
	}
	if len(f.Domains) > 0 {
		e.buf = append(e.buf, `,"domains":`...)
		e.rows(f.Domains)
	}
	if len(f.X) > 0 {
		e.buf = append(e.buf, `,"x":`...)
		appendList(e, f.X, e.float)
	}
	if len(f.Y) > 0 {
		e.buf = append(e.buf, `,"y":`...)
		appendList(e, f.Y, e.float)
	}
	if f.GapOpen != 0 {
		e.buf = append(e.buf, `,"gapopen":`...)
		e.float(f.GapOpen)
	}
	if f.GapExtend != 0 {
		e.buf = append(e.buf, `,"gapext":`...)
		e.float(f.GapExtend)
	}
	if len(f.Proc) > 0 {
		e.buf = append(e.buf, `,"proc":`...)
		appendList(e, f.Proc, e.int)
	}
	if len(f.Due) > 0 {
		e.buf = append(e.buf, `,"due":`...)
		appendList(e, f.Due, e.int)
	}
	if len(f.Weights) > 0 {
		e.buf = append(e.buf, `,"weights":`...)
		appendList(e, f.Weights, e.float)
	}
	e.buf = append(e.buf, '}')
}

// appendList appends xs as a JSON array, or null when xs is nil.
func appendList[T any](e *encoder, xs []T, elem func(T)) {
	if xs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, x := range xs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(x)
	}
	e.buf = append(e.buf, ']')
}

func (e *encoder) rows(xss [][]float64) { appendList(e, xss, e.floats) }

func (e *encoder) floats(xs []float64) { appendList(e, xs, e.float) }

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// str appends s quoted. A string with a byte json.Marshal escapes
// (control, non-ASCII, '"', '\\', and the HTML-sensitive '<', '>', '&')
// is left to json.Marshal.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(append(append(e.buf, '"'), s...), '"')
}

// float appends v as json.Marshal does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded. An integer below 2^53 other than
// -0 has those same digits from AppendInt.
func (e *encoder) float(v float64) {
	if i := int64(v); float64(i) == v && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(v)) {
		e.buf = strconv.AppendInt(e.buf, i, 10)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported value: %v", v)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, v, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}
