package sim

import (
	"bytes"
	"reflect"
	"testing"

	"icicle/internal/sample"
)

func sampleWindow() sample.WindowResult {
	return sample.WindowResult{Cycles: 2048, Insts: 1731, Tally: []uint64{2048, 0, 1731, 1 << 63, 17}}
}

// TestWindowCodecRoundTrip: a window survives the blob codec except for
// Index, which the key replaces, and its blob is exactly 8·(3+n) bytes.
func TestWindowCodecRoundTrip(t *testing.T) {
	wr := sampleWindow()
	wr.Index = 7
	payload := encodeWindow(wr)
	if want := 8 * (3 + len(wr.Tally)); len(payload) != want {
		t.Fatalf("blob is %d bytes, want %d", len(payload), want)
	}
	back, err := decodeWindow(payload)
	if err != nil {
		t.Fatal(err)
	}
	wr.Index = 0
	if !reflect.DeepEqual(back, wr) {
		t.Fatalf("round trip changed the window:\ngot  %+v\nwant %+v", back, wr)
	}
}

// TestWindowCodecRejectsTruncated: every proper prefix of a blob is
// rejected, whole words included.
func TestWindowCodecRejectsTruncated(t *testing.T) {
	payload := encodeWindow(sampleWindow())
	for n := 0; n < len(payload); n++ {
		if _, err := decodeWindow(payload[:n]); err == nil {
			t.Fatalf("accepted a blob truncated to %d of %d bytes", n, len(payload))
		}
	}
}

// TestWindowCodecRejectsTrailing: bytes past the declared tally are an
// error, not ignored.
func TestWindowCodecRejectsTrailing(t *testing.T) {
	payload := encodeWindow(sampleWindow())
	for _, extra := range [][]byte{{0}, make([]byte, 8), make([]byte, 16)} {
		if _, err := decodeWindow(append(bytes.Clone(payload), extra...)); err == nil {
			t.Fatalf("accepted a blob with %d trailing bytes", len(extra))
		}
	}
}

// FuzzDecodeWindow: window blobs come from disk, so decodeWindow must
// survive any payload. Whatever it accepts must re-encode to the same
// bytes.
func FuzzDecodeWindow(f *testing.F) {
	f.Add(encodeWindow(sampleWindow()))
	f.Add(encodeWindow(sample.WindowResult{}))
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		wr, err := decodeWindow(payload)
		if err != nil {
			return
		}
		if again := encodeWindow(wr); !bytes.Equal(again, payload) {
			t.Fatalf("decoded blob re-encodes differently:\nin  %x\nout %x", payload, again)
		}
	})
}
