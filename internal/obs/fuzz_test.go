package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder,
// seeded with a committed artefact manifest. Any input may be rejected,
// but none may panic, and an accepted manifest must re-encode to bytes
// that decode and re-encode identically.
func FuzzDecodeManifest(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", "results", "fac1.manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"repro.run.manifest/v1","binary":"b","model_version":"v","artefacts":{"x":"00"}}`))
	f.Add([]byte(`{"schema":"repro.run.manifest/v1","binary":"b","model_version":"v","metrics":{"m":{"kind":"gauge"}}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v\n%s", err, enc)
		}
		enc2, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

// FuzzParseChromeTrace feeds arbitrary bytes to the trace reader, seeded
// with a recorded trace (testdata: NPB IS class S on 2 ranks). Any input
// may be rejected, but none may panic, and every accepted event must
// land on its rank.
func FuzzParseChromeTrace(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "npb_is_S_np2.trace.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"traceEvents":[{"name":"Send","cat":"comm","ph":"X","ts":1,"dur":2,"pid":3,"tid":1,"args":{"bytes":"8","peer":"0","wait":"0.5","queued":"1e-6"}}]}`))
	// Negative and huge tids once indexed or sized the dense per-rank
	// timeline directly (an index panic, an unbounded allocation).
	f.Add([]byte(`{"traceEvents":[{"ph":"X","tid":-1}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","tid":4000000000000}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		runs, err := ParseChromeTrace(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, r := range runs {
			for rank, evs := range r.Timeline {
				for _, e := range evs {
					if e.Rank != rank {
						t.Fatalf("pid %d: event of rank %d filed under rank %d", r.PID, e.Rank, rank)
					}
				}
			}
		}
	})
}
