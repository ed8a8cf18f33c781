package ptdecode

import (
	"testing"
)

// FuzzPTDecodeLenient throws arbitrary byte streams at both decode modes.
// Strict may error; lenient must always return a path whose every PC is a
// real instruction of the program. Neither may panic or run away past the
// step budget, and both must agree with the step-at-a-time reference walk.
func FuzzPTDecodeLenient(f *testing.F) {
	p, _, streams := tracePSBDense(f)
	f.Add(streams[0])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0xA5, 0x5A})
	// A valid stream with its middle third inverted: the shape lenient
	// recovery is built for.
	f.Add(corruptMiddle(streams[0]))

	const budget = 1 << 14
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, diff := DiffReference(p, 0, data, Options{MaxSteps: budget}); diff != "" {
			t.Fatalf("strict decode differs from the reference: %s", diff)
		}
		path, diff := DiffReference(p, 0, data, Options{Lenient: true, MaxSteps: budget})
		if diff != "" {
			t.Fatalf("lenient decode differs from the reference: %s", diff)
		}
		if path == nil {
			t.Fatal("lenient decode returned no path")
		}
		if path.Len() > budget {
			t.Fatalf("decode exceeded step budget: %d steps", path.Len())
		}
		for i, pc := range pcsOf(path) {
			if _, ok := p.InstAt(pc); !ok {
				t.Fatalf("step %d: pc %#x is not an instruction", i, pc)
			}
		}
	})
}
