package repo

import (
	"bufio"
	"context"
)

// List and Get are single-exchange fetches: the tests of this package drive
// the protocol one request at a time with them, while relying parties fetch
// through FetchAll and SyncIncremental.

// single runs one exchange on a connection it holds alone, under the
// whole-call bound.
func single[T any](ctx context.Context, c *Client, uri URI, v verb, name string, read func(*bufio.Reader) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := c.pointConn(uri)
	defer pc.release()
	return one(ctx, pc, v, name, read)
}

// List returns the size and SHA-256 of every object available in the module.
func (c *Client) List(ctx context.Context, uri URI) (map[string]ObjectInfo, error) {
	return single(ctx, c, uri, verbList, "", readList)
}

// Get fetches one object from the module.
func (c *Client) Get(ctx context.Context, uri URI, name string) ([]byte, error) {
	content, err := single(ctx, c, uri, verbGet, name, readBody)
	c.countBytes(len(content))
	return content, err
}
