package telemetry

import (
	"os"
	"testing"
)

// FuzzValidateBench: ValidateBench decodes bytes from disk, so malformed
// input must come back as an error, never a panic. A document it accepts
// must survive a round trip through MarshalIndentedJSON unchanged in
// validity. The corpus is seeded with the committed baseline and a
// truncated copy of it.
func FuzzValidateBench(f *testing.F) {
	doc, err := os.ReadFile("../../BENCH_throughput.json")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ValidateBench(doc); err != nil {
		f.Fatalf("committed baseline does not validate: %v", err)
	}
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ValidateBench(data)
		if err != nil {
			if b != nil {
				t.Fatalf("error %v returned with a document", err)
			}
			return
		}
		out, err := b.MarshalIndentedJSON()
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if _, err := ValidateBench(out); err != nil {
			t.Fatalf("accepted document fails validation after a round trip: %v\n%s", err, out)
		}
	})
}
