package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// ResultStore is the persistent L2 behind the in-process memo: a
// content-addressed blob store (internal/store) or anything shaped like
// one. The runner consults it on memo misses and writes every freshly
// simulated result back, so identical sweeps are free across processes
// and users. Implementations must be safe for concurrent use; Put is
// best-effort (the runner ignores its error — a full disk degrades to
// recomputation, never to failure).
type ResultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// WithResultStore layers st under the memo cache as a persistent L2 for
// both job results and sampled-window results. Only successful results
// are persisted; errors always recompute. WithoutCache also bypasses the
// store (benchmark ablations measure true simulation throughput).
func WithResultStore(st ResultStore) Option {
	return func(r *Runner) { r.store = st }
}

// Store-key namespaces: job results and window results live in disjoint
// key families so their blob payloads (which have different shapes)
// can never be confused.
const (
	jobKeyPrefix    = "job|"
	windowKeyPrefix = "win|"
)

// StoreKey is the persistent-store key for a job: the memo fingerprint
// under the job namespace. store.Addr(StoreKey(j)) is the content
// address served at /store/{addr}.
func StoreKey(j Job) string { return jobKeyPrefix + j.Key() }

// persistResult is the on-disk form of a Result: everything except the
// Job descriptor (the key identifies it; the loader re-attaches the
// caller's own descriptor) and the error (failures are never persisted).
type persistResult struct {
	Core      CoreKind
	Rocket    rocket.Result
	Boom      boom.Result
	Breakdown core.Breakdown
	Sampled   *sample.Report
}

// EncodeResult renders a successful result as a store payload (gob).
// Errored results are not encodable: persisting a failure would pin a
// possibly transient error forever.
func EncodeResult(res Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	err := enc.Encode(persistResult{
		Core:      res.Job.Core,
		Rocket:    res.Rocket,
		Boom:      res.Boom,
		Breakdown: res.Breakdown,
		Sampled:   res.Sampled,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult parses a store payload back into a Result carrying the
// given job descriptor. The payload must have been produced by
// EncodeResult for the same store key; the store's checksums make
// corruption a miss before this runs, so a decode error here means a
// format drift — the caller treats it as a miss and recomputes.
func DecodeResult(payload []byte, j Job) (Result, error) {
	var pr persistResult
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pr); err != nil {
		return Result{}, err
	}
	return Result{
		Job:       j,
		Rocket:    pr.Rocket,
		Boom:      pr.Boom,
		Breakdown: pr.Breakdown,
		Sampled:   pr.Sampled,
	}, nil
}

// loadStored consults the L2 for a job result.
func (r *Runner) loadStored(j Job) (Result, bool) {
	payload, ok := r.store.Get(StoreKey(j))
	if !ok {
		return Result{}, false
	}
	res, err := DecodeResult(payload, j)
	if err != nil {
		return Result{}, false // format drift: recompute
	}
	res.Cached = true
	res.FromStore = true
	return res, true
}

// storeResult persists a freshly simulated result (best effort).
func (r *Runner) storeResult(j Job, res Result) {
	if res.Err != nil {
		return
	}
	payload, err := EncodeResult(res)
	if err != nil {
		return
	}
	r.store.Put(StoreKey(j), payload)
}

// encodeWindow / decodeWindow are the window-memo blob codec: a fixed
// little-endian layout of Cycles, Insts, the tally length n, then the n
// tally words, 8·(3+n) bytes in all. The key names the window, so Index
// is not stored; RunPlan sets it on a hit.
func encodeWindow(wr sample.WindowResult) []byte {
	b := make([]byte, 0, 8*(3+len(wr.Tally)))
	b = binary.LittleEndian.AppendUint64(b, wr.Cycles)
	b = binary.LittleEndian.AppendUint64(b, wr.Insts)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(wr.Tally)))
	for _, v := range wr.Tally {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// decodeWindow rejects any payload whose length is not exactly 8·(3+n)
// for the n it declares: a truncated or padded blob is a miss, never a
// misread window.
func decodeWindow(payload []byte) (sample.WindowResult, error) {
	if len(payload) < 24 || len(payload)%8 != 0 ||
		binary.LittleEndian.Uint64(payload[16:]) != uint64(len(payload)/8-3) {
		return sample.WindowResult{}, fmt.Errorf("sim: malformed window blob (%d bytes)", len(payload))
	}
	wr := sample.WindowResult{
		Cycles: binary.LittleEndian.Uint64(payload),
		Insts:  binary.LittleEndian.Uint64(payload[8:]),
		Tally:  make([]uint64, len(payload)/8-3),
	}
	for i := range wr.Tally {
		wr.Tally[i] = binary.LittleEndian.Uint64(payload[24+8*i:])
	}
	return wr, nil
}
