package istructure

// ID layout. SP instances and arrays are identified by 64-bit IDs minted
// without coordination: every PE numbers its own. The layout, high to low:
//
//	bits 48..62  job namespace (low 15 bits of the job ID; 0 = single-job)
//	bits 40..47  minting PE index + 1 (0 names no PE: the cluster driver's
//	             environment, ID 0, and the simulator's arrays, which one
//	             central counter numbers 1, 2, 3, …)
//	bits  0..39  the minting PE's sequence number
//
// The job bits give every concurrent job on a shared fleet its own ID
// namespace, so two jobs' SP and array IDs can never collide in any shared
// map even though frames are already routed per job. The layout is defined
// here, not by the runtime that mints the IDs, because a shard's array
// table (Shard.Array) indexes on its PE and sequence fields.
const (
	jobShift = 48
	PEShift  = 40
	JobMask  = 0x7fff

	// MaxPEs is the largest PE count an ID can name: the PE field is the
	// byte between PEShift and jobShift, and it stores pe+1.
	MaxPEs = 1<<(jobShift-PEShift) - 1

	seqMask = 1<<PEShift - 1
)

// PackID mints the ID with sequence number seq of PE pe under job namespace
// job (0 for a single-job run).
func PackID(job int32, pe int, seq int64) int64 {
	return (int64(job)&JobMask)<<jobShift | int64(pe+1)<<PEShift | seq
}

// PEOf recovers the minting PE from an ID; an ID with an empty PE field
// (the driver environment) returns -1. The mask strips the job bits.
func PEOf(id int64) int { return int((id>>PEShift)&MaxPEs) - 1 }

// JobOf recovers the job namespace bits from an ID.
func JobOf(id int64) int32 { return int32(id>>jobShift) & JobMask }
