// Cluster client write path and push invalidation. Writes are routed by
// the name being written (its first component picks the shard, exactly as
// resolution would route it) and go to the shard's primary replica only —
// primary-per-shard is the write rule; backups receive the mutation from
// the primary's replicator, not from clients. A write is one attempt with
// no failover: retrying a non-idempotent mutation after a lost response
// could double-apply, so an unreachable primary fails cleanly instead.

package cluster

import (
	"errors"
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

type pushOption struct{}

func (pushOption) apply(c *Client) { c.push = true }

// WithPushInvalidation subscribes every shared connection for server-push
// invalidation frames: each shard's revision advances reach the client as
// unsolicited frames that purge that shard's cache entries immediately,
// instead of at the next cache miss. The cache goes from poll-validated
// to push-invalidated; staleness after a write shrinks from "until my
// next round-trip to that shard" to one frame's flight time.
func WithPushInvalidation() ClientOption {
	return pushOption{}
}

// maybeSubscribe runs on each freshly installed shared connection (the
// replicaSet's onDial hook, outside any lock). A subscription failure is
// not fatal: the connection still resolves, and the cache falls back to
// poll validation on it.
func (c *Client) maybeSubscribe(shard int, conn *sharedConn) {
	c.mu.Lock()
	push := c.push
	c.mu.Unlock()
	if !push {
		return
	}
	_ = conn.Subscribe(func(rev uint64) { c.pushRevision(shard, rev) })
}

// pushRevision consumes one pushed invalidation: count it and feed the
// per-shard purge rule, exactly as a response carrying this revision
// would have.
func (c *Client) pushRevision(shard int, rev uint64) {
	c.mu.Lock()
	c.invalidations++
	c.noteRevision(shard, rev, nil)
	c.mu.Unlock()
}

// Invalidations returns how many pushed invalidation frames this client
// has consumed across all connections (0 without WithPushInvalidation).
func (c *Client) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidations
}

// Bind binds name in the cluster directory at dir to target. The write
// goes to the primary of the shard that serves (and will resolve) the
// resulting name.
func (c *Client) Bind(dir core.Path, name core.Name, target core.Entity) error {
	shard, err := c.writeShard(dir, name)
	if err != nil {
		return err
	}
	conn, err := c.primary(shard)
	if err != nil {
		return err
	}
	rev, err := conn.Bind(dir, name, target)
	return c.writeDone(shard, conn, rev, err)
}

// Unbind removes the binding for name in the cluster directory at dir.
func (c *Client) Unbind(dir core.Path, name core.Name) error {
	shard, err := c.writeShard(dir, name)
	if err != nil {
		return err
	}
	conn, err := c.primary(shard)
	if err != nil {
		return err
	}
	rev, err := conn.Unbind(dir, name)
	return c.writeDone(shard, conn, rev, err)
}

// Mkcontext creates a directory bound as name under the cluster directory
// at dir and returns the created entity.
func (c *Client) Mkcontext(dir core.Path, name core.Name) (core.Entity, error) {
	shard, err := c.writeShard(dir, name)
	if err != nil {
		return core.Undefined, err
	}
	conn, err := c.primary(shard)
	if err != nil {
		return core.Undefined, err
	}
	e, rev, err := conn.Mkcontext(dir, name)
	if err := c.writeDone(shard, conn, rev, err); err != nil {
		return core.Undefined, err
	}
	return e, nil
}

// writeShard routes a write to its shard. The shard is chosen by the full
// path of the binding being written — dir plus name — so the mutation
// lands on the server that resolves it. The dial is left to primary, so
// the function that takes the name only checks it and never reaches the
// wire (wirecanon's boundary rule).
func (c *Client) writeShard(dir core.Path, name core.Name) (int, error) {
	full := make(core.Path, 0, len(dir)+1)
	full = append(append(full, dir...), name)
	// A non-canonical name fails here, before the dial: the wire client
	// canonicalizes it, but routing a bad name would burn a connection.
	if err := nameserver.CheckWirePath(full); err != nil {
		return 0, err
	}
	return c.routes.ShardFor(full), nil
}

// primary returns the shard's primary connection, dialing it if needed.
func (c *Client) primary(shard int) (*sharedConn, error) {
	conn, err := c.shards[shard].getReplica(0)
	if err != nil {
		if errors.Is(err, ErrClientClosed) {
			return nil, err
		}
		return nil, fmt.Errorf("shard %d primary: %w", shard, err)
	}
	return conn, nil
}

// writeDone settles one write attempt: the reply's revision feeds the
// purge rule (a remote refusal still answered at a revision), and a
// transport failure retires the poisoned primary connection and fails the
// write cleanly — no retry, no failover to a backup.
func (c *Client) writeDone(shard int, conn *sharedConn, rev uint64, err error) error {
	c.mu.Lock()
	c.noteRevision(shard, rev, err)
	c.mu.Unlock()
	if err == nil {
		c.shards[shard].ok(conn.replica)
		return nil
	}
	if isRemote(err) {
		return err
	}
	c.shards[shard].retire(conn)
	c.noteFailover(0)
	return fmt.Errorf("shard %d primary: %w", shard, err)
}
