package core

import (
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
)

// WitnessOptions asks the analysis to attach a deterministic reproduction
// (internal/witness) to every race report. The analysis re-executes the
// program — so the caller must say which replayable program the trace came
// from (Spec) and how the machine was configured (the trace header itself
// carries only program name, seed and period).
type WitnessOptions struct {
	// Spec identifies the replayable program source ("bug", "workload" or
	// "oracle" kind; see witness.ProgSpec). Required: witnesses name
	// their program, they do not embed it.
	Spec witness.ProgSpec
	// Machine is the simulator configuration of the traced run. Its Seed
	// is overwritten from the trace header.
	Machine machine.Config
	// DriverKind and EnablePT mirror the TraceOptions of the recorded
	// run, for the traced-replay fallback rung.
	DriverKind driver.Kind
	EnablePT   bool
}

// attachWitnesses generates a witness per report, storing outcomes in
// res.Witnesses and the serialized recipe in each Report.Witness.
func attachWitnesses(p *prog.Program, tr *tracefmt.Trace, res *AnalysisResult, wo *WitnessOptions) {
	mcfg := wo.Machine
	mcfg.Seed = tr.Seed
	period := tr.Period
	if period == 0 {
		period = 10000 // TraceProgram's default
	}
	tspec := &witness.TracerSpec{
		Kind:     witness.DriverKindName(wo.DriverKind),
		Period:   period,
		Seed:     tr.Seed,
		EnablePT: wo.EnablePT,
	}
	res.Witnesses = make([]*witness.Outcome, len(res.Reports))
	for i := range res.Reports {
		out := witness.Generate(p, wo.Spec, mcfg, tspec, res.Reports[i])
		res.Witnesses[i] = out
		if out.Witness != nil {
			res.Reports[i].Witness = string(out.Witness.Encode())
		}
	}
}
