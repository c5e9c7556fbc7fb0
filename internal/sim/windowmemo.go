package sim

import (
	"sync"
	"sync/atomic"

	"icicle/internal/obs"
	"icicle/internal/sample"
)

// Window-result memo for the two-phase sampled engine. A window's key
// fingerprints everything its result depends on — core config, program,
// window length, start instruction, warm span, and the instruction bound
// when the window can reach it — so results are reusable wherever the
// keys coincide: a sweep re-run after the job cache was dropped
// (ConfigureDefault replaces the runner but not this memo, exactly like
// the core pools), or policies that schedule some identical windows,
// such as the same cadence at another Period. Like the job cache it has
// no eviction; a window result is a few hundred bytes.
//
// The memo is process-wide so every runner shares it; per-runner and
// per-job hit and miss counts are layered on by countingWindowMemo.
type windowStore struct {
	mu sync.RWMutex
	m  map[string]sample.WindowResult
}

func (ws *windowStore) Get(key string) (sample.WindowResult, bool) {
	ws.mu.RLock()
	wr, ok := ws.m[key]
	ws.mu.RUnlock()
	return wr, ok
}

func (ws *windowStore) Put(key string, wr sample.WindowResult) {
	ws.mu.Lock()
	if ws.m == nil {
		ws.m = map[string]sample.WindowResult{}
	}
	ws.m[key] = wr
	ws.mu.Unlock()
}

// Len reports the number of memoized windows (tests and stats).
func (ws *windowStore) Len() int {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return len(ws.m)
}

var sharedWindows windowStore

// countingWindowMemo is one job's view of the shared memo. It attributes
// memo traffic to the runner's counters and to the job's own, which its
// trace span reports, and when the runner has a persistent store it
// layers that under the in-memory map as an L2: window results persist
// across processes, so a sampled sweep on a fresh server resumes from
// checkpointed windows instead of re-simulating them.
type countingWindowMemo struct {
	store        *windowStore
	disk         ResultStore // optional persistent L2 (nil = memory only)
	hits, misses *obs.Counter
	// jobHits and jobMisses count this job's lookups alone.
	jobHits, jobMisses atomic.Uint64
}

func (cm *countingWindowMemo) Get(key string) (sample.WindowResult, bool) {
	wr, ok := cm.store.Get(key)
	if !ok && cm.disk != nil {
		if payload, found := cm.disk.Get(windowKeyPrefix + key); found {
			if dec, err := decodeWindow(payload); err == nil {
				cm.store.Put(key, dec) // promote to L1
				wr, ok = dec, true
			}
		}
	}
	if ok {
		cm.hits.Inc()
		cm.jobHits.Add(1)
	} else {
		cm.misses.Inc()
		cm.jobMisses.Add(1)
	}
	return wr, ok
}

func (cm *countingWindowMemo) Put(key string, wr sample.WindowResult) {
	cm.store.Put(key, wr)
	if cm.disk != nil {
		cm.disk.Put(windowKeyPrefix+key, encodeWindow(wr)) // best effort
	}
}

// memo returns cm as a sample.WindowMemo, or a nil interface when
// memoization is off.
func (cm *countingWindowMemo) memo() sample.WindowMemo {
	if cm == nil {
		return nil
	}
	return cm
}

// counts splits a finished job's windows into memo hits and windows it
// ran; without a memo every window ran.
func (cm *countingWindowMemo) counts(rep *sample.Report) (memo, run uint64) {
	if cm == nil {
		if rep != nil {
			run = uint64(len(rep.Windows))
		}
		return 0, run
	}
	return cm.jobHits.Load(), cm.jobMisses.Load()
}

// windowMemo returns a fresh per-job view of the shared memo, or nil
// when memoization is off (WithoutCache also disables window reuse, so
// benchmark ablations measure true window throughput).
func (r *Runner) windowMemo() *countingWindowMemo {
	if !r.memoize {
		return nil
	}
	return &countingWindowMemo{
		store:  &sharedWindows,
		disk:   r.store,
		hits:   r.m.windowHits,
		misses: r.m.windowMisses,
	}
}
