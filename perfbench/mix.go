package main

import (
	"math/rand"

	"memsched/internal/fleet"
	"memsched/internal/sched"
	"memsched/internal/serve"
)

// mixJob is one generated fleet job.
type mixJob struct {
	Spec serve.JobRequest
	// Repeat marks a spec drawn from the pre-warmed pool, which the
	// router must serve from its result cache.
	Repeat bool
}

// fleetMix draws the fleet-journal job stream from a seed. Every spec is
// tiny (n <= 8), so each simulation takes well under a millisecond and
// the router hop, journal, replica queue and encoding dominate. No spec
// uses hMETIS+R or mHFP, whose static phases would dominate instead.
type fleetMix struct {
	rng  *rand.Rand
	pool []serve.JobRequest
	// seen holds every canonical key issued, pool and fresh, so no fresh
	// spec can alias a pool entry or an earlier fresh spec.
	seen map[string]bool
	// nextSeed makes each fresh spec's simulation seed unique.
	nextSeed int64
}

// mixStrategies are the strategies jobs draw from: every strategy except
// the static-phase ones.
var mixStrategies = func() []string {
	var labels []string
	for _, s := range sched.All() {
		if !isPartitioner(s.Label) && !isPacker(s.Label) {
			labels = append(labels, s.Label)
		}
	}
	return labels
}()

// mixWorkloads bounds n per workload so each instance stays tiny.
var mixWorkloads = []struct {
	name string
	maxN int
}{
	{"matmul2d", 8}, {"matmul2d-rand", 8}, {"matmul3d", 5}, {"cholesky", 8},
}

func newFleetMix(seed int64, poolSize int) *fleetMix {
	m := &fleetMix{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}, nextSeed: 1}
	for len(m.pool) < poolSize {
		m.pool = append(m.pool, m.fresh())
	}
	return m
}

// Pool returns the specs to complete before timing starts.
func (m *fleetMix) Pool() []serve.JobRequest { return m.pool }

// fresh draws a spec whose canonical key was never issued.
func (m *fleetMix) fresh() serve.JobRequest {
	for {
		w := mixWorkloads[m.rng.Intn(len(mixWorkloads))]
		req := serve.JobRequest{
			Workload: w.name,
			N:        2 + m.rng.Intn(w.maxN-1),
			GPUs:     1 + m.rng.Intn(2),
			Strategy: mixStrategies[m.rng.Intn(len(mixStrategies))],
			Seed:     m.nextSeed,
			Cost:     m.rng.Intn(2) == 0,
		}
		m.nextSeed++
		req.Normalize()
		if key := fleet.CanonicalKey(req); !m.seen[key] {
			m.seen[key] = true
			return req
		}
	}
}

// Batch returns n jobs in a seeded order: half fresh, half repeats of
// pool specs.
func (m *fleetMix) Batch(n int) []mixJob {
	jobs := make([]mixJob, n)
	for i := range jobs {
		if i < n/2 {
			jobs[i] = mixJob{Spec: m.fresh()}
		} else {
			jobs[i] = mixJob{Spec: m.pool[m.rng.Intn(len(m.pool))], Repeat: true}
		}
	}
	m.rng.Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}
