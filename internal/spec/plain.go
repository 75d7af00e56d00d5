package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// parser reads the plain form of a spec body: one JSON object whose keys
// are File's wire names spelled exactly, whose strings are printable
// ASCII without escapes, and whose values have File's shapes, with no
// null anywhere. On that form it builds the File json.Unmarshal builds.
// On any other body it stops, and Decode hands the body to
// encoding/json, whose result and error the body then gets. A repeated
// key keeps its last value: json.Unmarshal decodes the later value over
// the earlier one, which on the plain form leaves the same File.
type parser struct {
	b []byte
	i int
}

// parsePlain fills f from a plain-form body and reports whether the body
// was one; when it was not, f is left partly filled.
func (f *File) parsePlain(data []byte) bool {
	p := &parser{b: data}
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return p.end()
	}
	for {
		key, ok := p.raw()
		if !ok || !p.eat(':') {
			return false
		}
		switch string(key) {
		case "problem":
			f.Problem, ok = p.str()
		case "design":
			f.Design, ok = p.int()
		case "costs":
			f.Costs, ok = parseList(p, MaxSpecStages, false, func() ([][]float64, bool) {
				return parseList(p, MaxSpecNodes, false, p.row(MaxSpecNodes))
			})
		case "values":
			f.Values, ok = parseList(p, MaxSpecStages, false, p.row(MaxSpecNodes))
		case "cost":
			f.Cost, ok = p.str()
		case "dims":
			f.Dims, ok = parseList(p, MaxSpecChainLen, true, p.int)
		case "domains":
			f.Domains, ok = parseList(p, MaxSpecStages, false, p.row(MaxSpecNodes))
		case "x":
			f.X, ok = parseList(p, MaxSpecSeries, true, p.float)
		case "y":
			f.Y, ok = parseList(p, MaxSpecSeries, true, p.float)
		case "gapopen":
			f.GapOpen, ok = p.float()
		case "gapext":
			f.GapExtend, ok = p.float()
		case "proc":
			f.Proc, ok = parseList(p, MaxSpecJobs, true, p.int)
		case "due":
			f.Due, ok = parseList(p, MaxSpecJobs, true, p.int)
		case "weights":
			f.Weights, ok = parseList(p, MaxSpecJobs, true, p.float)
		default:
			return false
		}
		if !ok {
			return false
		}
		if !p.eat(',') {
			return p.eat('}') && p.end()
		}
	}
}

// skip steps over JSON whitespace.
func (p *parser) skip() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace.
func (p *parser) eat(c byte) bool {
	p.skip()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *parser) end() bool {
	p.skip()
	return p.i == len(p.b)
}

// raw reads a string of printable ASCII other than '"' and '\\' and
// returns its bytes in the body.
func (p *parser) raw() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *parser) str() (string, bool) {
	s, ok := p.raw()
	return string(s), ok
}

// number scans one JSON number and returns its token. When the token has
// no fraction or exponent, n holds its digits' value and digits their
// count; n is meaningful only up to 19 digits.
func (p *parser) number() (tok []byte, n uint64, digits int, integer bool) {
	p.skip()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	digits = i - start
	if digits == 0 || b[start] == '0' && digits > 1 {
		return nil, 0, 0, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if i = digitsFrom(b, i); i < 0 {
			return nil, 0, 0, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digitsFrom(b, i); i < 0 {
			return nil, 0, 0, false
		}
		integer = false
	}
	tok, p.i = b[p.i:i], i
	return tok, n, digits, integer
}

// digitsFrom returns the index past the run of digits at b[i:], or -1 if
// there is none.
func digitsFrom(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// float reads a number as encoding/json does for a float64 field. An
// integer token of at most 15 digits is below 2^53, so float64 converts
// it exactly, and a leading minus on zero gives -0 as ParseFloat does.
func (p *parser) float() (float64, bool) {
	tok, n, digits, integer := p.number()
	if tok == nil {
		return 0, false
	}
	if integer && digits <= 15 {
		v := float64(n)
		if tok[0] == '-' {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// int reads an integer token of at most 18 digits, which fits an int64;
// encoding/json decides every other token.
func (p *parser) int() (int, bool) {
	tok, n, digits, integer := p.number()
	if tok == nil || !integer || digits > 18 {
		return 0, false
	}
	v := int64(n)
	if tok[0] == '-' {
		v = -v
	}
	return int(v), int64(int(v)) == v
}

// row returns a reader of one flat number array of at most max entries.
func (p *parser) row(max int) func() ([]float64, bool) {
	return func() ([]float64, bool) { return parseList(p, max, true, p.float) }
}

// parseList reads a JSON array whose elements elem reads. It stops past max
// elements, the Validate limit, so the encoding/json path reports the
// oversized field. A flat array (presize) is allocated once, at the
// count of commas before the next ']' capped at max: a body of commas
// then costs at most max elements before the parse fails.
func parseList[T any](p *parser, max int, presize bool, elem func() (T, bool)) ([]T, bool) {
	if !p.eat('[') {
		return nil, false
	}
	n := 0
	if presize {
		end := bytes.IndexByte(p.b[p.i:], ']')
		if end < 0 {
			return nil, false
		}
		n = 1 + bytes.Count(p.b[p.i:p.i+end], []byte{','})
		if n > max {
			return nil, false
		}
	}
	out := make([]T, 0, n)
	if p.eat(']') {
		return out, true
	}
	for len(out) < max {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if !p.eat(',') {
			return out, p.eat(']')
		}
	}
	return nil, false
}

// nullElement returns the path of the first null array element in a
// body json.Unmarshal accepted, such as "x[1]" or "costs[0][2][1]", or
// "" if there is none. json.Unmarshal leaves the zero value where an
// element is null, so a JavaScript client's NaN, which JSON.stringify
// writes as null, would be solved as 0.
func nullElement(data []byte) string {
	if !bytes.Contains(data, []byte("null")) {
		return ""
	}
	at, err := nullIn(json.NewDecoder(bytes.NewReader(data)), false)
	if err != errNull {
		return ""
	}
	return strings.TrimPrefix(at, ".")
}

// errNull stops nullIn's walk at a null array element.
var errNull = errors.New("null element")

// nullIn walks the value dec is at; inArray says whether that value is an
// array element. At a null element it returns errNull and the element's
// path within the value, such as ".x[2]"; a syntax error, which a body
// json.Unmarshal accepted does not have, also ends the walk.
func nullIn(dec *json.Decoder, inArray bool) (string, error) {
	tok, err := dec.Token()
	switch {
	case err != nil:
		return "", err
	case tok == nil && inArray:
		return "", errNull
	case tok == json.Delim('['):
		for i := 0; dec.More(); i++ {
			if at, err := nullIn(dec, true); err != nil {
				return fmt.Sprintf("[%d]%s", i, at), err
			}
		}
	case tok == json.Delim('{'):
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return "", err
			}
			if at, err := nullIn(dec, false); err != nil {
				return fmt.Sprintf(".%v%s", key, at), err
			}
		}
	default:
		return "", nil
	}
	_, err = dec.Token() // the closing bracket or brace
	return "", err
}
