package mpisim

// Collective operations implemented over blocking point-to-point, with the
// classic algorithms of early-2000s MPI implementations (LAM/MPI vintage):
// dissemination barrier, binomial-tree broadcast/reduce,
// recursive-doubling allreduce, and pairwise-exchange alltoall. All ranks
// of the world must call the collective.

// barrierToken is the size of barrier/control messages.
const barrierToken int64 = 8

// Barrier blocks until every rank reaches it (dissemination algorithm:
// ceil(log2 n) rounds of token exchanges).
func (r *Rank) Barrier() {
	n := r.Size()
	if n == 1 {
		return
	}
	for dist := 1; dist < n; dist *= 2 {
		to := (r.id + dist) % n
		from := (r.id - dist + n) % n
		if to == r.id {
			continue
		}
		// Token sends are eager-size, so Send never blocks on the matching
		// Recv and the dissemination pattern cannot deadlock.
		r.Send(to, barrierToken)
		r.Recv(from)
	}
}

// Bcast distributes size bytes from root to every rank via a binomial tree
// rooted at root.
func (r *Rank) Bcast(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	// Virtual rank with root at 0.
	vr := (r.id - root + n) % n
	// Receive from parent.
	if vr != 0 {
		mask := 1
		for vr&mask == 0 {
			mask *= 2
		}
		parent := ((vr - mask) + root) % n
		r.Recv(parent)
	}
	// Forward to children.
	mask := 1
	for vr&(mask-1) == 0 && mask < n {
		if vr&mask == 0 {
			child := vr + mask
			if child < n {
				r.Send((child+root)%n, size)
			}
		} else {
			break
		}
		mask *= 2
	}
}

// Reduce combines size bytes from every rank onto root (reverse binomial
// tree) and charges combineRef seconds of computation per received
// contribution.
func (r *Rank) Reduce(root int, size int64, combineRef float64) {
	n := r.Size()
	if n == 1 {
		return
	}
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask == 0 {
			src := vr | mask
			if src < n {
				r.Recv((src + root) % n)
				if combineRef > 0 {
					r.Compute(combineRef)
				}
			}
		} else {
			parent := ((vr &^ mask) + root) % n
			r.Send(parent, size)
			break
		}
		mask *= 2
	}
}

// Allreduce combines size bytes across all ranks and leaves the result
// everywhere, using recursive doubling when the world is a power of two and
// reduce+broadcast otherwise. combineRef seconds of computation are charged
// per combining step.
func (r *Rank) Allreduce(size int64, combineRef float64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) == 0 {
		for mask := 1; mask < n; mask *= 2 {
			peer := r.id ^ mask
			r.SendRecv(peer, size, size)
			if combineRef > 0 {
				r.Compute(combineRef)
			}
		}
		return
	}
	r.Reduce(0, size, combineRef)
	r.Bcast(0, size)
}

// tournamentPeer returns id's partner in round `round` of a round-robin
// tournament over n players (circle method), or -1 if id sits the round out
// (odd n only). Every round is a perfect matching, so pairwise SendRecv
// exchanges cannot deadlock; across rounds 0..rounds(n)-1 every pair meets
// exactly once.
func tournamentPeer(n, round, id int) int {
	m := n
	if m%2 == 1 {
		m++ // add a dummy player; pairing with it means sitting idle
	}
	rr := round % (m - 1)
	var peer int
	switch {
	case id == m-1:
		peer = rr
	case id == rr:
		peer = m - 1
	default:
		// Pairs (rr+k, rr-k) mod (m-1); solving for id's partner:
		peer = (2*rr - id + 2*(m-1)) % (m - 1)
	}
	if peer >= n {
		return -1 // paired with the dummy
	}
	return peer
}

// tournamentRounds reports the number of rounds needed for all pairs.
func tournamentRounds(n int) int {
	if n%2 == 0 {
		return n - 1
	}
	return n
}

// Alltoall exchanges size bytes between every ordered pair of ranks using
// round-robin tournament rounds of pairwise exchanges — each round is a
// perfect matching, so the blocking exchanges cannot deadlock.
func (r *Rank) Alltoall(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	for round := 0; round < tournamentRounds(n); round++ {
		peer := tournamentPeer(n, round, r.id)
		if peer < 0 || peer == r.id {
			continue
		}
		r.SendRecv(peer, size, size)
	}
}
