// Package fabric is the control plane the paper's "task management"
// story calls for at scale: a controller that drives many switches from
// one declarative spec instead of test code poking TCAM entries, tenant
// grants and SRAM partitions by hand.
//
// The lifecycle is diff → ChangeSet → apply → verify:
//
//   - A Spec declares, per device, the tenants (guard grants), services
//     (named SRAM allocations with optional seed words), controller
//     routes (exact-destination TCAM rules inside the controller's
//     priority band) and L3 prefixes that should exist.
//   - Diff reads each device's live state back through the same
//     machinery a collect TPP resolves through (Switch.ReadWord for the
//     epoch word, tcam.Entries, l3.Routes, the guard table and the SRAM
//     allocator) — never from a cached copy — and emits an ordered
//     ChangeSet of per-device mutations.  An empty ChangeSet is the
//     converged fixpoint.
//   - Apply executes each device's ops all-or-nothing: the device state
//     is snapshotted first, writes are epoch-stamped (a device whose
//     [Switch:Epoch] moved since the diff is not touched — the race
//     surfaces as a typed ErrEpochRaced instead of writes landing on a
//     wiped switch), any failed write rolls the device back to the
//     snapshot, and every op's effect is re-read and verified
//     field-by-field before the device counts as applied.
//   - Converge loops diff/apply with a bounded attempt budget and
//     exponential backoff (it doubles its own Backoff per round), so
//     an apply that races a faults.SwitchReboot rolls forward: the next
//     round re-diffs against the post-boot state and re-applies what
//     the wipe lost.  An exhausted budget degrades gracefully — the
//     unconverged devices are reported as typed per-device errors,
//     never silently dropped.
//
// Ownership is carved so the controller composes with everything else
// that writes switch state: controller routes live in their own TCAM
// priority band (fault-injected blackholes sit above it, legacy
// test-installed routes below), services are allocator tasks under the
// "fabric/" name prefix, and the tenant table and L3 table are claimed
// only by specs that list at least one tenant or prefix for the device.
//
// The fabric/scenario subpackage layers a YAML scenario runner
// (provision → converge → assert → churn) on top, and cmd/fabricctl is
// the operator CLI: dry-run by default, -execute to apply.
package fabric
