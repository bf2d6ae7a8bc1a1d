(** GC-quiet host-heap allocation measurement.

    The figure is the [Gc.allocated_bytes] delta, which on OCaml 5.1.1
    counts the not yet collected minor heap in words: over a window with
    no minor collection it equals the [Gc.minor_words] delta, the
    minor-heap words allocated, not bytes. A collection landing inside a
    window makes it jump by up to 7/8 of the minor heap's fill, and on
    the effects-heavy engine short windows often contain one. These
    helpers enlarge the minor heap, empty it right before the window, and
    verify the window stayed collection-free, making the per-operation
    figures exact and reproducible, in words. *)

val with_quiet_heap : (unit -> 'a) -> 'a
(** Run with a temporarily enlarged minor heap (256 MB), restoring the
    previous GC parameters on exit. *)

val measure : (unit -> 'a) -> 'a * float * bool
(** [measure fn] empties the minor generation, runs [fn] and returns its
    result, the allocation figure (words, when the window is quiet), and
    [true] when no minor collection landed inside the window (i.e. the
    figure is exact). *)
