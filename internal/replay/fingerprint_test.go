package replay_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
)

var update = flag.Bool("update", false, "rewrite testdata/recon_fingerprints.json from the live engine")

// The traces the golden file covers: every Table-2 bug at periods 100 and
// 1000, seeds 1 and 3, traced with the ProRace driver and PT.
var (
	reconPeriods = []uint64{100, 1000}
	reconSeeds   = []int64{1, 3}
)

const reconFingerprintPath = "testdata/recon_fingerprints.json"

// reconFingerprint identifies one reconstruction of every thread of a
// trace under one engine configuration: the FNV-1a hash of the threads'
// accesses in ascending TID order, their summed Stats without InvalidHits,
// and how many threads had InvalidHits.
type reconFingerprint struct {
	Run         string       `json:"run"`
	AccessFNV   string       `json:"access_fnv64a"`
	Accesses    int          `json:"accesses"`
	Stats       replay.Stats `json:"stats"`
	Invalidated int          `json:"invalidated_threads"`
}

// TestReconFingerprints holds reconstruction to a committed record of what
// it produces on the Table-2 bugs: full ProRace, forward replay alone, and
// full ProRace re-run with the detected racy addresses invalidated (the
// §5.1 feedback). The differential matrices compare the production walks
// with reference walks that share their per-path state, so a change to
// that state moves both sides together; this record does not move. It
// leaves InvalidHits out, whose count is a bookkeeping choice, and keeps
// only whether each thread had any.
//
// Regenerate after an intentional change to reconstruction with
//
//	go test ./internal/replay -run TestReconFingerprints -update
func TestReconFingerprints(t *testing.T) {
	var (
		mu  sync.Mutex
		got = map[string]reconFingerprint{}
	)
	var order []string
	t.Run("reconstruct", func(t *testing.T) {
		for _, bug := range bugs.All() {
			for _, period := range reconPeriods {
				for _, seed := range reconSeeds {
					bug, period, seed := bug, period, seed
					name := fmt.Sprintf("%s/period%d/seed%d", bug.ID, period, seed)
					for _, cfg := range []string{"fb", "fwd", "fb-invalidated"} {
						order = append(order, name+"/"+cfg)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						built, tr := traceBug(t, bug, period, seed)
						p := built.Workload.Program
						tts, err := synthesis.SynthesizeWith(p, tr, synthesis.Options{Lenient: true})
						if err != nil {
							t.Fatal(err)
						}
						fb := reconFingerprintOf(replay.NewEngine(p, replay.Config{}), tts)
						fwd := reconFingerprintOf(replay.NewEngine(p, replay.Config{Mode: replay.ModeForward}), tts)
						acc, _ := replay.NewEngine(p, replay.Config{}).ReconstructAll(tts)
						racy := race.Detect(tr.Sync, acc, race.Options{TrackAllocations: true}).RacyAddrSet()
						inv := reconFingerprintOf(replay.NewEngine(p, replay.Config{InvalidAddrs: racy}), tts)
						mu.Lock()
						for cfg, f := range map[string]reconFingerprint{"fb": fb, "fwd": fwd, "fb-invalidated": inv} {
							f.Run = name + "/" + cfg
							got[f.Run] = f
						}
						mu.Unlock()
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	ordered := make([]reconFingerprint, 0, len(order))
	for _, run := range order {
		ordered = append(ordered, got[run])
	}

	if *update {
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(reconFingerprintPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reconFingerprintPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(ordered), reconFingerprintPath)
		return
	}

	data, err := os.ReadFile(reconFingerprintPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []reconFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ordered) {
		t.Errorf("golden file holds %d runs, the test reconstructs %d", len(want), len(ordered))
	}
	var diffs []string
	for _, w := range want {
		g, ok := got[w.Run]
		switch {
		case !ok:
			diffs = append(diffs, w.Run+": not reconstructed")
		case g != w:
			diffs = append(diffs, fmt.Sprintf("%s:\n  got  %+v\n  want %+v", w.Run, g, w))
		}
	}
	if len(diffs) > 0 {
		t.Errorf("%d of %d reconstructions differ from %s:\n%s", len(diffs), len(want), reconFingerprintPath, strings.Join(diffs, "\n"))
	}
}

// reconFingerprintOf reconstructs every thread of tts with e.
func reconFingerprintOf(e *replay.Engine, tts map[int32]*synthesis.ThreadTrace) reconFingerprint {
	tids := make([]int32, 0, len(tts))
	for tid := range tts {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	var f reconFingerprint
	h := fnv.New64a()
	var buf []byte
	for _, tid := range tids {
		acc, st := e.ReconstructThread(tts[tid])
		for _, a := range acc {
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(a.TID))
			buf = binary.LittleEndian.AppendUint64(buf, a.PC)
			buf = binary.LittleEndian.AppendUint64(buf, a.Addr)
			buf = binary.LittleEndian.AppendUint64(buf, a.TSC)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Step))
			store := byte(0)
			if a.Store {
				store = 1
			}
			buf = append(buf, store, byte(a.Origin))
			h.Write(buf)
		}
		f.Accesses += len(acc)
		if st.InvalidHits > 0 {
			f.Invalidated++
		}
		st.InvalidHits = 0
		f.Stats.Merge(st)
	}
	f.AccessFNV = fmt.Sprintf("%016x", h.Sum64())
	return f
}
