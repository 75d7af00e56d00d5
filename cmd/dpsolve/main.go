// Command dpsolve classifies and solves dynamic-programming problems with
// the architecture the paper's Table 1 prescribes.
//
// Usage:
//
//	dpsolve -problem graph -stages 8 -values 5 -design 1        # multistage shortest path
//	dpsolve -problem traffic -stages 10 -values 6               # Section 2.2 node-valued workload
//	dpsolve -problem chain -dims 30,35,15,5,10,20,25            # matrix-chain ordering
//	dpsolve -problem nonserial -stages 5 -values 3              # ternary chain via grouping
//	dpsolve -problem table1                                     # print Table 1
//	dpsolve -spec problem.json                                  # solve a JSON spec
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"systolicdp/internal/core"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/semiring"
	"systolicdp/internal/spec"
	"systolicdp/internal/workload"
)

func main() {
	problem := flag.String("problem", "graph", "problem kind: graph | traffic | circuit | fluid | scheduling | curve | chain | nonserial | table1")
	stages := flag.Int("stages", 8, "number of stages/variables")
	values := flag.Int("values", 5, "quantized values per stage")
	design := flag.Int("design", 1, "systolic design for graph problems: 0 (baseline), 1 (pipelined), 2 (broadcast)")
	dims := flag.String("dims", "", "comma-separated matrix-chain dimensions r0,...,rn")
	seed := flag.Int64("seed", 1985, "workload seed")
	specPath := flag.String("spec", "", "path to a JSON problem specification (overrides -problem)")
	jsonOut := flag.Bool("json", false, "emit the solution as JSON")
	dump := flag.String("dump", "", "also write the generated instance as a JSON spec to this path (graph and chain problems)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this long (0 = no limit)")
	flag.Parse()

	solveCtx = context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(solveCtx, *timeout)
		defer cancel()
	}
	asJSON = *jsonOut
	if *specPath != "" {
		if err := runSpec(*specPath); err != nil {
			fmt.Fprintln(os.Stderr, "dpsolve:", err)
			os.Exit(1)
		}
		return
	}
	dumpPath = *dump
	if err := run(*problem, *stages, *values, *design, *dims, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dpsolve:", err)
		os.Exit(1)
	}
}

// dumpPath, when set, receives the generated instance as a JSON spec.
var dumpPath string

// maybeDump writes the instance spec if -dump was given.
func maybeDump(p core.Problem) error {
	if dumpPath == "" {
		return nil
	}
	var f *spec.File
	switch q := p.(type) {
	case *core.MultistageProblem:
		var err error
		f, err = spec.FromGraph(q.Graph, q.Design)
		if err != nil {
			return err
		}
	case *core.ChainOrderingProblem:
		f = spec.FromChain(q.Dims)
	default:
		return fmt.Errorf("-dump supports graph and chain problems, not %T", p)
	}
	data, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(dumpPath, data, 0o644)
}

func run(problem string, stages, values, design int, dims string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var p core.Problem
	switch problem {
	case "table1":
		for _, r := range core.TableOne() {
			fmt.Printf("%-20s | %-46s | %-66s | %s\n", r.Class, r.Characteristic, r.Method, r.Requirements)
		}
		return nil
	case "graph":
		inner := multistage.RandomUniform(rng, stages-1, values, 1, 10)
		g := multistage.SingleSourceSink(semiring.MinPlus{}, inner)
		p = &core.MultistageProblem{Graph: g, Design: design}
	case "traffic", "circuit", "fluid", "scheduling", "curve":
		nv, err := workload.ByName(problem, rng, stages, values)
		if err != nil {
			return err
		}
		p = &core.NodeValuedProblem{Problem: nv}
	case "chain":
		if dims == "" {
			return fmt.Errorf("-dims required for chain ordering")
		}
		parts := strings.Split(dims, ",")
		ds := make([]int, 0, len(parts))
		for _, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad dimension %q: %v", s, err)
			}
			ds = append(ds, v)
		}
		p = &core.ChainOrderingProblem{Dims: ds}
	case "nonserial":
		p = &core.NonserialChainProblem{Chain: nonserial.RandomUniformChain3(rng, stages, values, 0, 10)}
	default:
		return fmt.Errorf("unknown problem %q", problem)
	}

	if err := maybeDump(p); err != nil {
		return err
	}
	return report(p)
}

// runSpec loads a JSON specification, solves it, and reports. Errors name
// the offending file.
func runSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := spec.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return report(p)
}

// asJSON switches report output to JSON.
var asJSON bool

// solveCtx bounds every solve; -timeout arms its deadline.
var solveCtx = context.Background()

// jsonSolution is the machine-readable report shape.
type jsonSolution struct {
	Problem  string  `json:"problem"`
	Class    string  `json:"class"`
	Method   string  `json:"method"`
	Hardware string  `json:"hardware"`
	Cost     float64 `json:"cost"`
	Path     []int   `json:"path,omitempty"`
	Ordering string  `json:"ordering,omitempty"`
}

// report solves p and prints the standard summary.
func report(p core.Problem) error {
	sol, err := core.SolveCtx(solveCtx, p)
	if err != nil {
		return err
	}
	rec := core.Recommend(sol.Class)
	if asJSON {
		out, err := json.MarshalIndent(jsonSolution{
			Problem:  p.Describe(),
			Class:    sol.Class.String(),
			Method:   rec.Method,
			Hardware: rec.Requirements,
			Cost:     sol.Cost,
			Path:     sol.Path,
			Ordering: sol.Ordering,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Printf("problem:  %s\n", p.Describe())
	fmt.Printf("class:    %s\n", sol.Class)
	fmt.Printf("method:   %s\n", rec.Method)
	fmt.Printf("hardware: %s\n", rec.Requirements)
	fmt.Printf("cost:     %g\n", sol.Cost)
	if sol.Path != nil {
		fmt.Printf("path:     %v\n", sol.Path)
	}
	if sol.Ordering != "" {
		fmt.Printf("ordering: %s\n", sol.Ordering)
	}
	return nil
}
