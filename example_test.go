package prorace_test

import (
	"fmt"

	"prorace"
)

// Example demonstrates the full pipeline on a built-in workload: trace the
// apache model online with the ProRace driver, analyze offline, and
// inspect what was reconstructed.
func Example() {
	w := prorace.MustWorkload("apache", 1)
	res, err := prorace.Run(w.Program, prorace.WithMachine(w.Machine))
	if err != nil {
		panic(err)
	}
	st := res.AnalysisResult.ReplayStats
	fmt.Println("workload:", w.Name)
	fmt.Println("races in the race-free base workload:", len(res.AnalysisResult.Reports))
	fmt.Println("reconstruction beat sampling:", st.Total() > st.Sampled)
	// Output:
	// workload: apache
	// races in the race-free base workload: 0
	// reconstruction beat sampling: true
}

// ExampleBugByID shows the Table 2 bug catalog: each entry carries the
// documented manifestation and the racy access's addressing mode.
func ExampleBugByID() {
	bug, err := prorace.BugByID("pfscan")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %s, %s access\n", bug.ID, bug.Manifestation, bug.Type)
	// Output:
	// pfscan: infinite loop, pc relative access
}

// ExampleNewProgram assembles a custom program through the facade and
// validates it.
func ExampleNewProgram() {
	b := prorace.NewProgram("demo")
	b.Global("x", 8)
	m := b.Func("main")
	m.Load(prorace.R1, prorace.MemGlobal("x", 0))
	m.AddI(prorace.R1, 1)
	m.Store(prorace.MemGlobal("x", 0), prorace.R1)
	m.Exit(0)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println("instructions:", len(p.Insts))
	fmt.Println("entry symbol:", p.SymbolizeAddr(p.Entry))
	// Output:
	// instructions: 5
	// entry symbol: main
}
