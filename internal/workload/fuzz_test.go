package workload

import "testing"

// FuzzParseProfile feeds arbitrary bytes to the profile decoder that
// mdsim -profile reads from disk, then builds every profile it accepts.
// A bad profile must come back as an error from ParseProfile or
// Generate: neither may panic, and a built program's data section must
// stay within the bound maxFootprintWords sets.
func FuzzParseProfile(f *testing.F) {
	for _, p := range Profiles() {
		data, err := MarshalProfile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","base":"126.gcc","footprintWords":1048576}`))
	f.Add([]byte(`{"name":"x","footprintWords":2097152}`))
	f.Add([]byte(`{"name":"x","depDistance":-1,"branchEvery":100000}`))
	f.Add([]byte(`{"name":"x","loadFrac":1e308,"callFrac":-0.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := ParseProfile(data)
		if err != nil {
			return
		}
		p, err := Generate(pr)
		if err != nil {
			return
		}
		if len(p.Data) > 2*maxFootprintWords {
			t.Fatalf("footprint %d words built a %d-word data section", pr.FootprintWords, len(p.Data))
		}
	})
}
