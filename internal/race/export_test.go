package race

// linearMergeCursors is the reference k-way merge the heap in mergeCursors
// must reproduce: every step scans all cursors and emits the head with the
// least (TSC, mergePriority), keeping the lowest cursor index on ties.
func linearMergeCursors(sink EventSink, cursors []*streamCursor) {
	for {
		best := -1
		var bh *event
		for i, c := range cursors {
			h := c.head()
			if h == nil {
				continue
			}
			if best < 0 || h.TSC < bh.TSC || (h.TSC == bh.TSC && h.mergePriority() < bh.mergePriority()) {
				best, bh = i, h
			}
		}
		if best < 0 {
			return
		}
		if bh.Sync != nil {
			sink.HandleSync(bh.Sync)
		} else {
			sink.HandleAccess(bh.Acc)
		}
		cursors[best].advance()
	}
}
