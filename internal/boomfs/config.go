package boomfs

import "fmt"

// Config holds the tunables of a BOOM-FS deployment. All durations are
// in (simulated) milliseconds.
type Config struct {
	// ReplicationFactor is the number of datanodes each chunk is
	// written to (HDFS default 3).
	ReplicationFactor int
	// HeartbeatMS is the datanode heartbeat period.
	HeartbeatMS int64
	// DNTimeoutMS is how stale a heartbeat may be before the master
	// considers the datanode dead.
	DNTimeoutMS int64
	// FDTickMS is the master's failure-detector / re-replication period.
	FDTickMS int64
	// GCTickMS is the orphan-chunk garbage-collection period; 0 disables
	// GC (required for partitioned masters).
	GCTickMS int64
	// GCGraceMS is how long a chunk must stay unreferenced before GC
	// purges it — long enough for a restarted master replica to catch
	// up on the decided metadata log before anything is destroyed.
	GCGraceMS int64
	// ChunkSize is the client-side split size in bytes.
	ChunkSize int
	// DiskMS models the fixed cost of a chunk-store access.
	DiskMS int64
	// BytesPerMS models storage/network streaming bandwidth for chunk
	// payloads (used to convert chunk sizes into simulated time).
	BytesPerMS int64
	// OpTimeoutMS bounds synchronous client operations.
	OpTimeoutMS int64
}

// DefaultConfig mirrors HDFS-ish defaults scaled down for simulation.
func DefaultConfig() Config {
	return Config{
		ReplicationFactor: 3,
		HeartbeatMS:       500,
		DNTimeoutMS:       2000,
		FDTickMS:          1000,
		GCTickMS:          5000,
		GCGraceMS:         10_000,
		ChunkSize:         64 << 10,
		DiskMS:            2,
		BytesPerMS:        100 << 10, // ~100 MB/s
		OpTimeoutMS:       30_000,
	}
}

func (c Config) validate() error {
	if c.ReplicationFactor < 1 {
		return fmt.Errorf("boomfs: replication factor must be >= 1, got %d", c.ReplicationFactor)
	}
	if c.HeartbeatMS <= 0 || c.DNTimeoutMS <= 0 || c.FDTickMS <= 0 {
		return fmt.Errorf("boomfs: heartbeat, timeout and fd periods must be positive")
	}
	if c.GCTickMS < 0 {
		return fmt.Errorf("boomfs: gc period must be >= 0 (0 disables)")
	}
	if c.GCGraceMS < 0 {
		return fmt.Errorf("boomfs: gc grace must be >= 0")
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("boomfs: chunk size must be positive, got %d", c.ChunkSize)
	}
	if c.BytesPerMS <= 0 {
		return fmt.Errorf("boomfs: bandwidth must be positive, got %d", c.BytesPerMS)
	}
	return nil
}

// transferMS converts a payload size into simulated transfer time.
func (c Config) transferMS(n int) int64 {
	ms := c.DiskMS + int64(n)/c.BytesPerMS
	if ms < 1 {
		ms = 1
	}
	return ms
}
