package main

import (
	"reflect"
	"testing"

	"memsched/internal/fleet"
)

func TestFleetMixIsSeeded(t *testing.T) {
	a, b, c := newFleetMix(7, fleetPool), newFleetMix(7, fleetPool), newFleetMix(8, fleetPool)
	if !reflect.DeepEqual(a.Pool(), b.Pool()) || !reflect.DeepEqual(a.Batch(200), b.Batch(200)) {
		t.Fatal("the same seed gave different mixes")
	}
	if reflect.DeepEqual(a.Batch(200), c.Batch(200)) {
		t.Fatal("different seeds gave the same mix")
	}
}

func TestFleetMixShape(t *testing.T) {
	m := newFleetMix(3, fleetPool)
	poolKeys := map[string]bool{}
	for _, s := range m.Pool() {
		poolKeys[fleet.CanonicalKey(s)] = true
	}
	if len(poolKeys) != fleetPool {
		t.Fatalf("pool has %d distinct keys, want %d", len(poolKeys), fleetPool)
	}
	fresh := map[string]bool{}
	for batch := 0; batch < 5; batch++ {
		jobs := m.Batch(fleetBatch)
		repeats := 0
		for _, j := range jobs {
			if err := j.Spec.Validate(300, 8); err != nil {
				t.Fatalf("invalid spec %+v: %v", j.Spec, err)
			}
			if isPartitioner(j.Spec.Strategy) || isPacker(j.Spec.Strategy) {
				t.Fatalf("spec uses static-phase strategy %q", j.Spec.Strategy)
			}
			if j.Spec.N > 8 {
				t.Fatalf("spec not tiny: n=%d", j.Spec.N)
			}
			key := fleet.CanonicalKey(j.Spec)
			if j.Repeat {
				repeats++
				if !poolKeys[key] {
					t.Fatalf("repeat %s is not from the pool", key)
				}
				continue
			}
			if poolKeys[key] || fresh[key] {
				t.Fatalf("fresh spec %s repeats an earlier key", key)
			}
			fresh[key] = true
		}
		if repeats != fleetBatch/2 {
			t.Fatalf("batch has %d repeats, want %d", repeats, fleetBatch/2)
		}
	}
}
