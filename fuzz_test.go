package regcast_test

import (
	"testing"

	"regcast"
)

// FuzzParseTopologySpec feeds arbitrary text to the -topology spec
// parser. Parsing, the SpecNodeCount query and — for specs small enough
// to build quickly — Build must return errors, never panic.
func FuzzParseTopologySpec(f *testing.F) {
	f.Add("regular:n=64,d=4")
	f.Add("hypercube:dim=6,dense=true")
	f.Add("torus:rows=4,cols=8")
	f.Add("gnp:n=32,p=0.2")
	f.Add("overlay:n=32,d=4,join=0.1,leave=0.1,mix=2")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := regcast.ParseTopologySpec(input)
		if err != nil {
			return
		}
		if n := regcast.SpecNodeCount(spec); n >= 1 && n <= 4096 {
			_, _ = spec.Build(0, regcast.NewRand(1)) // an error is an accepted outcome
		}
	})
}
