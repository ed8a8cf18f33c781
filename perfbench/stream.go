package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prorace/internal/core"
	"prorace/internal/monitor"
	"prorace/internal/monitor/client"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// The streaming half of a traced run: one producer uploads its program
// image, then streams the PRSG segments of the workload's trace to a
// proraced with its shipped defaults, open loop at streamRate segments per
// second over one loopback connection. The trace is cut into exactly as
// many segments as the session sends, so the producer never restarts its
// run mid-window, which the daemon rejects by design.
const (
	streamTenant = "tenant-0"
	streamRate   = 5.0
	// daemonWindow is proraced's default -window: each round re-analyses
	// the newest daemonWindow segments, so the first daemonWindow segments
	// of a run are sent before measuring starts.
	daemonWindow = 8
)

// tenantInput is the producer's generated stream.
type tenantInput struct {
	name   string
	p      *prog.Program
	frames [][]byte
}

// newTenant cuts a traced run into the daemonWindow warm-up segments plus
// streamRate per second of measurement.
func newTenant(p *prog.Program, tr *core.TraceResult, seconds time.Duration) *tenantInput {
	segs := tr.Trace.Split(daemonWindow + int(seconds.Seconds()*streamRate))
	t := &tenantInput{name: streamTenant, p: p}
	for i, seg := range segs {
		t.frames = append(t.frames, tracefmt.EncodeSegment(tracefmt.SegmentHeader{
			Seq:    uint64(i),
			Tenant: t.name,
			Final:  i == len(segs)-1,
		}, seg))
	}
	return t
}

// bootStream starts a daemon under dir and has the tenant's client upload
// its program image.
func bootStream(cfg config, dir string, t *tenantInput) (*daemon, *client.Client, error) {
	d, err := startDaemon(cfg.daemon, dir)
	if err != nil {
		return nil, nil, err
	}
	c, err := client.New(client.Config{BaseURL: d.base, Tenant: t.name})
	if err == nil {
		err = c.UploadProgram(prog.EncodeImage(t.p))
	}
	if err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("tenant %s: %w", t.name, err)
	}
	return d, c, nil
}

// sendRecord is one segment the load generator sent.
type sendRecord struct {
	seq              int
	due, sent, acked time.Time
	err              error
	lin              *monitor.SegmentLineage // nil when the daemon has none
}

// streamStats is what one streaming session measured.
type streamStats struct {
	sends   []sendRecord // the measured segments
	pending []float64    // the daemon's backlog, sampled over the measurement
	retries int
	total   int // segments sent, warm-up included
}

// streamSession drives the open-loop load: the tenant sends every frame on
// a fixed schedule, segment k due at start + k/streamRate whatever happened
// to segment k-1; the first daemonWindow are warm-up. It then waits for
// every segment's lineage to end and reads the lineages back from /tenantz.
func streamSession(d *daemon, c *client.Client, t *tenantInput) (*streamStats, error) {
	period := time.Duration(float64(time.Second) / streamRate)
	start := time.Now().Add(50 * time.Millisecond)
	measureStart := start.Add(daemonWindow * period)

	var records []sendRecord
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for k, frame := range t.frames {
			due := start.Add(time.Duration(k) * period)
			time.Sleep(time.Until(due))
			r := sendRecord{seq: k, due: due, sent: time.Now()}
			r.err = c.SendSegment(frame)
			r.acked = time.Now()
			records = append(records, r)
		}
	}()

	st := &streamStats{total: len(t.frames)}
	time.Sleep(time.Until(measureStart))
	tick := time.NewTicker(250 * time.Millisecond)
	for polling := true; polling; {
		select {
		case <-sent:
			polling = false
		case <-tick.C:
			var s monitor.Statusz
			if err := d.getJSON("/statusz?format=json", &s); err == nil {
				pending := 0
				for _, ts := range s.Tenants {
					pending += ts.PendingSegments
				}
				st.pending = append(st.pending, float64(pending))
			}
		}
	}
	tick.Stop()
	st.retries = c.Stats().Retries

	// Every acked segment must end analyzed; wait for the stragglers.
	var lineages map[uint64]monitor.SegmentLineage
	deadline := time.Now().Add(60 * time.Second)
	for {
		var tz monitor.Tenantz
		if err := d.getJSON("/tenantz?format=json&tenant="+t.name, &tz); err != nil {
			return nil, err
		}
		open := 0
		lineages = map[uint64]monitor.SegmentLineage{}
		for _, l := range tz.Lineages {
			lineages[l.Seq] = l
			if !monitor.TerminalStage(l.Stage) {
				open++
			}
		}
		if open == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, r := range records {
		if r.seq < daemonWindow {
			continue
		}
		if l, ok := lineages[uint64(r.seq)]; ok {
			r.lin = &l
		}
		st.sends = append(st.sends, r)
	}
	return st, nil
}

// stageAt returns when a lineage entered stage.
func stageAt(l *monitor.SegmentLineage, stage string) time.Time {
	for _, tr := range l.Transitions {
		if tr.Stage == stage {
			return tr.At
		}
	}
	return time.Time{}
}

// analyzedSends counts the session's measured segments as attempted and
// returns those acked with a 202 whose lineage ended analyzed; every other
// one is a failure. A run whose backlog grew is unsustainable: all of its
// segments count as failed, as its latencies are not those of the rate.
func analyzedSends(st *streamStats, o *outcome) []sendRecord {
	var ok []sendRecord
	for _, r := range st.sends {
		o.attempted++
		switch {
		case r.err != nil:
			o.fail(1, "segment %d: %v", r.seq, r.err)
		case r.lin == nil:
			o.fail(1, "segment %d was acked but has no lineage", r.seq)
		case r.lin.Stage != monitor.StageAnalyzed:
			o.fail(1, "segment %d was acked but ended %s %s", r.seq, r.lin.Stage, r.lin.Error)
		default:
			ok = append(ok, r)
		}
	}
	if n := len(st.pending) / 3; n > 0 {
		first, last := mean(st.pending[:n]), mean(st.pending[len(st.pending)-n:])
		if last-first >= 2 {
			o.fail(o.attempted, "unsustainable: the daemon's backlog grew from %.1f to %.1f segments across the run", first, last)
		}
	}
	return ok
}

// daemonLayers puts the per-layer metrics a streaming session measured
// into o: the daemon's lineage stages, the client and the load generator.
func daemonLayers(st *streamStats, o *outcome) {
	var ackStage, queueWait, round, send, lag, rounds []float64
	for _, r := range analyzedSends(st, o) {
		ackStage = append(ackStage, ms(stageAt(r.lin, monitor.StageAcked).Sub(stageAt(r.lin, monitor.StageIngested))))
		queueWait = append(queueWait, ms(stageAt(r.lin, monitor.StageAnalyzing).Sub(stageAt(r.lin, monitor.StageQueued))))
		round = append(round, ms(stageAt(r.lin, monitor.StageAnalyzed).Sub(stageAt(r.lin, monitor.StageAnalyzing))))
		send = append(send, ms(r.acked.Sub(r.sent)))
		lag = append(lag, ms(r.sent.Sub(r.due)))
		// The last window's segments stop being re-analysed when the load
		// ends, so only earlier ones show the steady-state round count.
		if r.seq < st.total-daemonWindow {
			rounds = append(rounds, float64(r.lin.Rounds))
		}
	}
	o.put("monitor.ack_stage_ms", median(ackStage), len(ackStage))
	o.put("monitor.queue_wait_ms", median(queueWait), len(queueWait))
	o.put("monitor.round_ms", median(round), len(round))
	o.put("monitor.rounds_per_segment", mean(rounds), len(rounds))
	o.put("client.send_ms", median(send), len(send))
	o.put("client.retries", float64(st.retries), len(st.sends))
	o.put("loadgen.lag_p90_ms", quantile(lag, 0.9), len(lag))
}

// streamLayerCalls replays, in process, each monitor-side layer call the
// daemon makes for every segment: frame decode, the journal append (same
// fsync policy, same filesystem), the analysis round over the window the
// segment completes (a fresh session sharing one decoded-path cache, as
// the daemon's rounds share its process-wide cache) and the store update.
func streamLayerCalls(cfg config, rec *recorder, t *tenantInput, o *outcome) error {
	wal, err := monitor.OpenWAL(filepath.Join(cfg.work, "layer-wal"), monitor.FsyncPolicy{Mode: monitor.FsyncAlways}, nil)
	if err != nil {
		return err
	}
	defer wal.Close()
	store, err := monitor.OpenStore("")
	if err != nil {
		return err
	}
	// proraced serve runs each round with core.AnalysisOptions holding only
	// its worker and shard flags (both 0 by default): lenient, and in the
	// zero replay mode.
	opts := core.AnalysisOptions{PathCache: synthesis.NewCache(synthesis.DefaultCacheCapacity)}
	var hits, rounds int
	segs := make([]*tracefmt.Trace, len(t.frames))
	for k, frame := range t.frames {
		o.attempted++
		var err error
		rec.timed("tracefmt.decode_segment", -1, func() { _, segs[k], err = tracefmt.DecodeSegment(frame) })
		if err == nil {
			rec.timed("monitor.wal_append", -1, func() {
				_, err = wal.Append(t.name, fmt.Sprintf("key-%d", k), fmt.Sprintf("%s-seq-%d", t.name, k), frame)
			})
		}
		if err != nil {
			o.fail(1, "segment %d: %v", k, err)
			continue
		}
		var res *core.AnalysisResult
		parent := rec.start("daemon_round", -1)
		a, err := core.NewAnalyzer(t.p, opts)
		if err == nil {
			rec.timed("core.session_feed", parent, func() {
				for _, seg := range segs[max(0, k-daemonWindow+1) : k+1] {
					if err = a.Feed(seg); err != nil {
						return
					}
				}
			})
		}
		if err == nil {
			rec.timed("core.session_finish", parent, func() { res, err = a.Finish() })
		}
		if err == nil {
			rec.timed("monitor.store_observe", parent, func() { _, _, err = store.ObserveNewAt(t.name, t.p.Name, res.Reports, uint64(k+1)) })
		}
		rec.end(parent)
		if err != nil {
			o.fail(1, "round over segment %d: %v", k, err)
			continue
		}
		rounds++
		if res.DecodeCacheHit {
			hits++
		}
	}
	for _, name := range []string{"tracefmt.decode_segment", "monitor.wal_append", "core.session_feed", "core.session_finish", "monitor.store_observe"} {
		xs := rec.durations(name)
		o.put(name+"_ms", median(xs), len(xs))
	}
	o.put("monitor.wal_bytes_per_segment", float64(wal.Size(t.name))/float64(len(t.frames)), len(t.frames))
	if rounds > 0 {
		o.put("core.round_cache_hit_ratio", float64(hits)/float64(rounds), rounds)
	}
	return nil
}

// tracedStream runs the streaming half of a traced run: a daemon session
// for the per-layer stage metrics, then the in-process layer calls.
func tracedStream(cfg config, rec *recorder, t *tenantInput, o *outcome) error {
	dir := filepath.Join(cfg.work, "daemon")
	d, c, err := bootStream(cfg, dir, t)
	if err != nil {
		return err
	}
	st, err := streamSession(d, c, t)
	d.stop()
	if err != nil {
		return err
	}
	daemonLayers(st, o)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return streamLayerCalls(cfg, rec, t, o)
}
