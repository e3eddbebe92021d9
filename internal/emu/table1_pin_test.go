package emu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

// table1StreamSHA256 holds the SHA-256 of the sealed .mdrec bytes of the
// first 30,000 instructions of each Table 1 analog (the seal falls on
// the next 4,096-instruction chunk boundary, 32,768). They were recorded
// while the data image and emulator memory were still per-word maps, and
// pin the emitted stream across changes to prog, workload and emu.
var table1StreamSHA256 = map[string]string{
	"099.go":       "7a4bac867e7ec057528f2489fac936f9343e6ebbf6b7d8ebc20bc1c19600a9f6",
	"101.tomcatv":  "70deee0ca0d9894563b2ec1de9a452db2294b99127df3279c56657605dd0e7d7",
	"102.swim":     "95a2c6095d41a6c1099419268863a15462d04ff3f6b3167843793201a12eb3ec",
	"103.su2cor":   "ed9ccd52ffabe404fad741272b0b47375d2645e000e80fa3617340d41dff04f7",
	"104.hydro2d":  "e79fa5b8bedddd4822b1c18404f1378af9b9e5cbc50a21dd6f00f754104ba940",
	"107.mgrid":    "f9f012c1a6e691423aa60dbde85cb347eb272bebaba5a0b3e1b8674222717909",
	"110.applu":    "22bdb9a12d0cef5efde607de07a5563b77a7450fcf10731ced11ee654f582c3c",
	"124.m88ksim":  "13ea871036630227e1db1d119ddd194a3b420029c0c9be84e87b8727559e91f9",
	"125.turb3d":   "95e847310297283a45c0fe5ed76827163b1462f2449f11ffc091b22c5bf869a0",
	"126.gcc":      "9bf51cbec7badae01cabe4bbf640a18c50ab9b685e33272af5cb556590a7ff09",
	"129.compress": "dc9bbcf77525d218623f4f0e4d6da3fbe9746422ccb4bce2f1d388af356ad9b2",
	"130.li":       "f05da6d276a1e664f7c6d66a3fcb6bb8e0621effc59fb55faaa904dfaca2f065",
	"132.ijpeg":    "43ec3e05481c1d4551ba3b3b8733314cd91fdc1af3542ad67fdc9cf1a2b7981e",
	"134.perl":     "4237c98919e5d61c44048e82e0a5e0bb812f4d5c4ff963e39d1be8ec9eb24730",
	"141.apsi":     "eec4a21035e60e998e457d7442def5b1a3f66629bb3c84e0473f8fd0e0653479",
	"145.fpppp":    "2578ec1e952bcf448deef9dbaeae77a43a92cecea30a9780dd8b80377f2e3332",
	"146.wave5":    "28cccac1e18ea3759bfcaab1eb43b65367c2a181d35d90093b88e0e72a45ac2c",
	"147.vortex":   "493dca589e7a24089eb8c7af60bfc411561ad866b8ed43b3489edad82fcc1574",
}

// TestTable1StreamPinned guards the functional stream itself.
// TestColumnarRoundTripTable1 compares two streams from the same
// emulator, so an emulation change that alters both passes it; this
// test fails on any change to an address, value, producer or branch
// outcome in the first 30,000 instructions of any analog.
func TestTable1StreamPinned(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := emu.NewRecording(emu.New(workload.MustBuild(name)))
			rec.Record(30_000)
			h := sha256.New()
			if _, err := rec.WriteSealedTo(h); err != nil {
				t.Fatal(err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), table1StreamSHA256[name]; got != want {
				t.Errorf("%s stream digest = %s, want %s", name, got, want)
			}
		})
	}
}
