package fleet

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"memsched/internal/obs"
)

// AddReplica joins a replica to the fleet at runtime: the hash ring is
// rebuilt with the new member (consistent hashing keeps key movement to
// ~1/N) and the health prober starts probing it immediately. Idempotent
// errors: an existing member or a malformed URL is refused.
func (r *Router) AddReplica(replica string) error {
	replica = strings.TrimRight(strings.TrimSpace(replica), "/")
	if replica == "" {
		return fmt.Errorf("empty replica URL")
	}
	u, err := url.Parse(replica)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("replica %q is not an http(s) base URL", replica)
	}
	r.mu.Lock()
	for _, m := range r.ring.Replicas() {
		if m == replica {
			r.mu.Unlock()
			return fmt.Errorf("replica %q already a member", replica)
		}
	}
	members := r.ring.Replicas()
	next := make([]string, len(members), len(members)+1)
	copy(next, members)
	next = append(next, replica)
	r.ring = NewRing(next, r.cfg.VNodes)
	r.ctr.MembershipJoins++
	r.mu.Unlock()

	r.health.Add(replica)
	now := r.now().UnixNano()
	r.tracer.Event(obs.Span{
		Kind: obs.KindReplicaJoin, Key: replica, Start: now, End: now,
		Note: fmt.Sprintf("joined; membership now %d", len(next)),
	})
	r.log.Info("replica joined", "replica", replica, "members", len(next))
	return nil
}

// RemoveReplica leaves a replica from the fleet. The ring is rebuilt
// without it immediately, so no new job routes there. With force the
// replica also leaves the health view at once — its in-flight
// dispatches abort and fail over. Without force the leave is
// drain-aware: the replica is pinned at draining and removed from the
// health view only after its in-flight dispatches finish, so no work is
// redundantly re-executed. The last member cannot be removed.
func (r *Router) RemoveReplica(replica string, force bool) error {
	replica = strings.TrimRight(strings.TrimSpace(replica), "/")
	return r.removeReplica(replica, force, false)
}

func (r *Router) removeReplica(replica string, force, evict bool) error {
	r.mu.Lock()
	members := r.ring.Replicas()
	idx := -1
	for i, m := range members {
		if m == replica {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.mu.Unlock()
		return fmt.Errorf("replica %q is not a member", replica)
	}
	if len(members) == 1 {
		r.mu.Unlock()
		return fmt.Errorf("refusing to remove the last member %q", replica)
	}
	next := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != replica {
			next = append(next, m)
		}
	}
	r.ring = NewRing(next, r.cfg.VNodes)
	if evict {
		r.ctr.MembershipEvicts++
	} else {
		r.ctr.MembershipLeaves++
	}
	r.mu.Unlock()

	mode := "drain"
	switch {
	case evict:
		mode = "auto-evict"
	case force:
		mode = "force"
	}
	now := r.now().UnixNano()
	r.tracer.Event(obs.Span{
		Kind: obs.KindReplicaLeave, Key: replica, Start: now, End: now,
		Note: fmt.Sprintf("left (%s); membership now %d", mode, len(next)),
	})
	r.log.Info("replica leaving", "replica", replica, "mode", mode, "members", len(next))

	if force || evict {
		r.health.Remove(replica)
		return nil
	}
	// Drain-aware: keep the replica in the health view (pinned at
	// draining so it can't be promoted back) until its in-flight
	// dispatches complete, then drop it. Removing it from Health early
	// would flip its State to down and abort those dispatches.
	r.health.MarkLeaving(replica)
	go r.awaitDrainAndRemove(replica)
	return nil
}

// awaitDrainAndRemove polls the replica's in-flight dispatch count and
// completes a drain-aware leave once it reaches zero (or the router
// shuts down).
func (r *Router) awaitDrainAndRemove(replica string) {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		r.mu.Lock()
		active := r.dispActive[replica]
		r.mu.Unlock()
		if active == 0 {
			r.health.Remove(replica)
			r.log.Info("replica drained and removed", "replica", replica)
			return
		}
		select {
		case <-r.baseCtx.Done():
			r.health.Remove(replica)
			return
		case <-t.C:
		}
	}
}

// evictLoop is the auto-eviction janitor: a replica continuously down
// for EvictAfter is force-removed from the membership, so a permanently
// dead member stops absorbing probes and hash-ring share. Runs until
// shutdown; never evicts the last member.
func (r *Router) evictLoop() {
	defer r.janitorWg.Done()
	interval := r.cfg.EvictAfter / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.baseCtx.Done():
			return
		case <-t.C:
			for _, rep := range r.health.DownLongerThan(r.cfg.EvictAfter) {
				if err := r.removeReplica(rep, true, true); err == nil {
					r.log.Warn("replica auto-evicted", "replica", rep, "down_for", r.cfg.EvictAfter.String())
				}
			}
		}
	}
}
