(** GC-quiet host-heap allocation measurement.

    [Gc.allocated_bytes] deltas are exact only over windows containing no
    minor collection; on the effects-heavy engine a collection landing
    inside a short window shifts a spurious ~minor-heap-sized lump into
    it.  These helpers enlarge the minor heap, empty it right before the
    window, and verify the window stayed collection-free, making the
    per-operation figures byte-exact and reproducible. *)

val with_quiet_heap : (unit -> 'a) -> 'a
(** Run with a temporarily enlarged minor heap (256 MB), restoring the
    previous GC parameters on exit. *)

val measure : (unit -> 'a) -> 'a * float * bool
(** [measure fn] empties the minor generation, runs [fn] and returns its
    result, the bytes allocated, and [true] when no minor collection
    landed inside the window (i.e. the figure is exact). *)
