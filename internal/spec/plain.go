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
			f.Costs, ok = p.matrices()
		case "values":
			f.Values, ok = p.matrix()
		case "cost":
			f.Cost, ok = p.str()
		case "dims":
			f.Dims, ok = parseList(p, MaxSpecChainLen, p.int)
		case "domains":
			f.Domains, ok = p.matrix()
		case "x":
			f.X, ok = parseList(p, MaxSpecSeries, p.float)
		case "y":
			f.Y, ok = parseList(p, MaxSpecSeries, p.float)
		case "gapopen":
			f.GapOpen, ok = p.float()
		case "gapext":
			f.GapExtend, ok = p.float()
		case "proc":
			f.Proc, ok = parseList(p, MaxSpecJobs, p.int)
		case "due":
			f.Due, ok = parseList(p, MaxSpecJobs, p.int)
		case "weights":
			f.Weights, ok = parseList(p, MaxSpecJobs, p.float)
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

// list reads a JSON array of at most max elements, calling elem at each.
// Past max it stops, so the encoding/json path reports the oversized
// field.
func (p *parser) list(max int, elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for n := 0; n < max; n++ {
		if !elem() {
			return false
		}
		if !p.eat(',') {
			return p.eat(']')
		}
	}
	return false
}

// count returns the most elements the array at p.i can hold: one more
// than its commas before the next ']'. Past max, the Validate limit, it
// fails, so the encoding/json path reports the oversized field.
func (p *parser) count(max int) (int, bool) {
	p.skip()
	if p.i >= len(p.b) || p.b[p.i] != '[' {
		return 0, false
	}
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return 0, false
	}
	n := 1 + bytes.Count(p.b[p.i:p.i+end], []byte{','})
	return n, n <= max
}

// parseList reads a flat JSON array whose elements elem reads, allocated
// once at its count capped at max: a body of commas then costs at most
// max elements before the parse fails.
func parseList[T any](p *parser, max int, elem func() (T, bool)) ([]T, bool) {
	n, ok := p.count(max)
	if !ok {
		return nil, false
	}
	out := make([]T, 0, n)
	ok = p.list(max, func() bool {
		v, ok := elem()
		out = append(out, v)
		return ok
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// grid is the backing store of one matrix-valued field. Its rows are
// carved out of chunks of numbers, and each matrix's rows out of one
// array of rows, with full slice expressions, so an append to one row or
// matrix cannot overwrite the next. A field of at most maxGridPresize
// numbers takes one chunk, so it decodes in a fixed number of
// allocations whatever its row count; a larger one takes a chunk per
// maxGridPresize numbers, and no number is copied.
type grid struct {
	nums []float64 // the chunk rows are read into
	left int       // numbers the field's scan counted and the parse has not read
	rows [][]float64
}

// maxGridPresize caps a chunk of numbers and the rows and matrices a
// grid is presized for, so a field of commas or empty rows, which the
// scan counts but the parse rejects, allocates at most this many of each
// before it fails.
const maxGridPresize = 1 << 15

// newGrid scans the field at p.i, an array nested depth deep whose
// innermost arrays are rows of numbers, up to its closing bracket. It
// returns a grid that expects one number more than each row's commas,
// with room for the rows it counted, and the count of arrays at depth 2:
// the rows of a matrix, the matrices of costs. The scan checks little
// syntax; on a body that is not the plain form its counts only size the
// grid, and the parse then fails.
func (p *parser) newGrid(depth int) (g grid, lists int, ok bool) {
	p.skip()
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '[' {
		return g, 0, false
	}
	level, rows := 0, 0
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r', ',':
			i++
		case '[':
			i++
			if level++; level == 2 {
				lists++
			}
			if level < depth {
				continue
			}
			end := bytes.IndexByte(b[i:], ']')
			if end < 0 {
				return g, 0, false
			}
			g.left += 1 + bytes.Count(b[i:i+end], []byte{','})
			rows++
			i, level = i+end+1, level-1
		case ']':
			i++
			if level--; level == 0 {
				g.rows = make([][]float64, 0, min(rows, maxGridPresize))
				return g, min(lists, maxGridPresize), true
			}
		default:
			return g, 0, false
		}
	}
	return g, 0, false
}

// reserve makes room in g.nums for the row at p.i, so reading it moves
// no number already read. The chunk has room while it can hold every
// number still expected or a row of MaxSpecNodes. Otherwise the row's
// commas are counted, and a row the chunk cannot hold starts a new one,
// sized for the row or for the next maxGridPresize numbers expected,
// whichever is more.
func (g *grid) reserve(p *parser) bool {
	free := cap(g.nums) - len(g.nums)
	if free >= min(g.left, MaxSpecNodes) {
		return true
	}
	n, ok := p.count(MaxSpecNodes)
	if !ok {
		return false
	}
	if n > free {
		g.nums = make([]float64, 0, max(n, min(g.left, maxGridPresize)))
	}
	return true
}

// rows reads an array of at most max rows of at most MaxSpecNodes
// numbers each into g.
func (p *parser) rows(g *grid, max int) ([][]float64, bool) {
	first := len(g.rows)
	ok := p.list(max, func() bool {
		if !g.reserve(p) {
			return false
		}
		at := len(g.nums)
		ok := p.list(MaxSpecNodes, func() bool {
			v, ok := p.float()
			g.nums = append(g.nums, v)
			return ok
		})
		end := len(g.nums)
		g.rows = append(g.rows, g.nums[at:end:end])
		g.left -= end - at
		return ok
	})
	end := len(g.rows)
	return g.rows[first:end:end], ok
}

// matrix reads a [][]float64 field (values, domains) of at most
// MaxSpecStages rows.
func (p *parser) matrix() ([][]float64, bool) {
	g, _, ok := p.newGrid(2)
	if !ok {
		return nil, false
	}
	return p.rows(&g, MaxSpecStages)
}

// matrices reads the [][][]float64 costs field: at most MaxSpecStages
// matrices of at most MaxSpecNodes rows each.
func (p *parser) matrices() ([][][]float64, bool) {
	g, n, ok := p.newGrid(3)
	if !ok {
		return nil, false
	}
	out := make([][][]float64, 0, n)
	ok = p.list(MaxSpecStages, func() bool {
		m, ok := p.rows(&g, MaxSpecNodes)
		out = append(out, m)
		return ok
	})
	return out, ok
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
