package check

// Minimize greedily shrinks a mismatching instance while the mismatch
// persists: it drops stages/nodes/elements and zeroes weights, accepting
// any transformation after which Check still reports a mismatch. The
// result is the small reproducer dpcheck prints.
func Minimize(inst *Instance, workers []int) *Instance {
	return minimizeWith(inst, func(cand *Instance) bool {
		ms, _ := Check(cand, workers)
		return len(ms) > 0
	})
}

// minimizeWith is Minimize against an arbitrary "still failing"
// predicate (tests inject synthetic bugs through it).
func minimizeWith(inst *Instance, still func(*Instance) bool) *Instance {
	if !still(inst) {
		return inst // flaky or environment-dependent; report as-is
	}
	cur := inst
	for budget := 0; budget < 400; budget++ {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			if still(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	cur.Label += " (minimized)"
	return cur
}

// shrinkCandidates proposes structurally smaller variants, largest
// reductions first.
func shrinkCandidates(in *Instance) []*Instance {
	if k := ops[in.Kind()]; k.shrink != nil {
		return k.shrink(in)
	}
	return nil
}

func cloneInstance(in *Instance) *Instance {
	out := *in
	out.File.Costs = clone3(in.File.Costs)
	out.File.Values = clone2(in.File.Values)
	out.File.Domains = clone2(in.File.Domains)
	out.File.X = append([]float64(nil), in.File.X...)
	out.File.Y = append([]float64(nil), in.File.Y...)
	out.File.Dims = append([]int(nil), in.File.Dims...)
	return &out
}

func clone2(v [][]float64) [][]float64 {
	if v == nil {
		return nil
	}
	out := make([][]float64, len(v))
	for i := range v {
		out[i] = append([]float64(nil), v[i]...)
	}
	return out
}

func clone3(v [][][]float64) [][][]float64 {
	if v == nil {
		return nil
	}
	out := make([][][]float64, len(v))
	for i := range v {
		out[i] = clone2(v[i])
	}
	return out
}

// shrinkGraph operates on the wrapped single-source/sink shape the
// generator emits: Costs[0] is 1 x m, the middle matrices are m x m, the
// last is m x 1.
func shrinkGraph(in *Instance) []*Instance {
	var out []*Instance
	costs := in.File.Costs
	// Drop one intermediate m x m stage matrix.
	for k := 1; k+1 < len(costs); k++ {
		c := cloneInstance(in)
		c.File.Costs = append(c.File.Costs[:k], c.File.Costs[k+1:]...)
		out = append(out, c)
	}
	// Drop node j from every intermediate stage: remove column j of each
	// matrix feeding a stage and row j of each matrix leaving one.
	if len(costs) > 0 && len(costs[0]) > 0 {
		m := len(costs[0][0])
		if m > 1 {
			for j := 0; j < m; j++ {
				c := cloneInstance(in)
				for k, mat := range c.File.Costs {
					if k > 0 { // drop row j (source stage keeps its 1 row)
						mat = append(mat[:j], mat[j+1:]...)
					}
					if k+1 < len(c.File.Costs) { // drop column j (sink keeps its 1 col)
						for r := range mat {
							mat[r] = append(mat[r][:j], mat[r][j+1:]...)
						}
					}
					c.File.Costs[k] = mat
				}
				out = append(out, c)
			}
		}
	}
	// Zero one nonzero finite weight.
	out = append(out, zeroOne3(in, func(c *Instance) [][][]float64 { return c.File.Costs })...)
	return out
}

func shrinkNodeValued(in *Instance) []*Instance {
	var out []*Instance
	vals := in.File.Values
	if len(vals) > 2 {
		for k := range vals {
			c := cloneInstance(in)
			c.File.Values = append(c.File.Values[:k], c.File.Values[k+1:]...)
			out = append(out, c)
		}
	}
	// Drop value j from every stage that has it and at least one other,
	// so uniform instances stay uniform and ragged ones shrink too.
	widest := 0
	for _, vs := range vals {
		widest = max(widest, len(vs))
	}
	for j := 0; widest > 1 && j < widest; j++ {
		c := cloneInstance(in)
		for k, vs := range c.File.Values {
			if j < len(vs) && len(vs) > 1 {
				c.File.Values[k] = append(vs[:j], vs[j+1:]...)
			}
		}
		out = append(out, c)
	}
	out = append(out, zeroOne2(in, func(c *Instance) [][]float64 { return c.File.Values })...)
	return out
}

func shrinkDTW(in *Instance) []*Instance {
	var out []*Instance
	if len(in.File.X) > 1 {
		for i := range in.File.X {
			c := cloneInstance(in)
			c.File.X = append(c.File.X[:i], c.File.X[i+1:]...)
			out = append(out, c)
		}
	}
	if len(in.File.Y) > 1 {
		for i := range in.File.Y {
			c := cloneInstance(in)
			c.File.Y = append(c.File.Y[:i], c.File.Y[i+1:]...)
			out = append(out, c)
		}
	}
	for i, v := range in.File.X {
		if v != 0 {
			c := cloneInstance(in)
			c.File.X[i] = 0
			out = append(out, c)
		}
	}
	for i, v := range in.File.Y {
		if v != 0 {
			c := cloneInstance(in)
			c.File.Y[i] = 0
			out = append(out, c)
		}
	}
	return out
}

func shrinkChain(in *Instance) []*Instance {
	var out []*Instance
	if len(in.File.Dims) > 2 {
		for i := range in.File.Dims {
			c := cloneInstance(in)
			c.File.Dims = append(c.File.Dims[:i], c.File.Dims[i+1:]...)
			out = append(out, c)
		}
	}
	for i, d := range in.File.Dims {
		if d > 1 {
			c := cloneInstance(in)
			c.File.Dims[i] = 1
			out = append(out, c)
		}
	}
	return out
}

func shrinkNonserial(in *Instance) []*Instance {
	var out []*Instance
	if len(in.File.Domains) > 3 {
		for k := range in.File.Domains {
			c := cloneInstance(in)
			c.File.Domains = append(c.File.Domains[:k], c.File.Domains[k+1:]...)
			out = append(out, c)
		}
	}
	for k := range in.File.Domains {
		if len(in.File.Domains[k]) > 1 {
			c := cloneInstance(in)
			c.File.Domains[k] = c.File.Domains[k][:len(c.File.Domains[k])-1]
			out = append(out, c)
		}
	}
	out = append(out, zeroOne2(in, func(c *Instance) [][]float64 { return c.File.Domains })...)
	return out
}

func zeroOne2(in *Instance, field func(*Instance) [][]float64) []*Instance {
	var out []*Instance
	src := field(in)
	for i := range src {
		for j, v := range src[i] {
			if v != 0 && isFinite(v) {
				c := cloneInstance(in)
				field(c)[i][j] = 0
				out = append(out, c)
			}
		}
	}
	return out
}

func zeroOne3(in *Instance, field func(*Instance) [][][]float64) []*Instance {
	var out []*Instance
	src := field(in)
	for k := range src {
		for i := range src[k] {
			for j, v := range src[k][i] {
				if v != 0 && isFinite(v) {
					c := cloneInstance(in)
					field(c)[k][i][j] = 0
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func isFinite(v float64) bool { return v == v && v < 1e308 && v > -1e308 }
