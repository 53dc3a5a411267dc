(** Process-wide kernel counters for the set kernels of {!Item},
    {!Accumulator} and the index-assisted steps of {!Axis}.

    These sit below the language layer (which owns {!Fixq_lang.Stats}),
    so they are plain global counters the stats layer snapshots around
    fixpoint rounds. Updates are unsynchronized, which is acceptable
    for observability counters: they never feed back into evaluation. *)

type snapshot = {
  merges : int;  (** merge-kernel invocations (ddo/union/except/intersect) *)
  merged_items : int;  (** items flowing through merge kernels *)
  fallback_sorts : int;  (** kernel inputs that were not already sorted *)
  bitmap_tests : int;  (** accumulator bitmap membership tests *)
  bitmap_hits : int;  (** … of which answered "already present" *)
  index_steps : int;  (** axis steps answered from the name index *)
  index_nodes : int;  (** nodes produced by index-assisted steps *)
  col_batches : int;  (** columnar batch-kernel invocations (algebra) *)
  col_rows : int;  (** rows flowing through columnar batch kernels *)
  col_boxed_rows : int;  (** … of which fell back to boxed row-at-a-time *)
}

val merges : int ref
val merged_items : int ref
val fallback_sorts : int ref
val bitmap_tests : int ref
val bitmap_hits : int ref
val index_steps : int ref
val index_nodes : int ref
val col_batches : int ref
val col_rows : int ref
val col_boxed_rows : int ref

val snapshot : unit -> snapshot
val zero : snapshot

(** [diff a b] is the componentwise [a - b]. *)
val diff : snapshot -> snapshot -> snapshot

val add : snapshot -> snapshot -> snapshot
val reset : unit -> unit
