package main

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestSSEWriterConcurrentEvents is the regression test for the unsynchronized
// sseWriter: the closure engine's Progress callback fires from worker
// goroutines while the handler goroutine writes its own frames, and the old
// writer let them interleave mid-line (and race on the ResponseWriter). Under
// -race the unguarded version fails here; the frame check below catches the
// interleaving even without the detector.
func TestSSEWriterConcurrentEvents(t *testing.T) {
	rec := httptest.NewRecorder()
	sse := &sseWriter{w: rec, f: rec}

	const writers, events = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				sse.event("move", map[string]int{"writer": w, "seq": i})
			}
		}(w)
	}
	wg.Wait()

	frames := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n")
	if len(frames) != writers*events {
		t.Fatalf("got %d frames, want %d", len(frames), writers*events)
	}
	for i, frame := range frames {
		lines := strings.Split(frame, "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: move") ||
			!strings.HasPrefix(lines[1], `data: {"seq":`) {
			t.Fatalf("frame %d interleaved or malformed:\n%s", i, frame)
		}
	}
}
