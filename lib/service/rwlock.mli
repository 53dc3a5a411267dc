(** A writer-preferring readers–writer lock. Readers share it, a writer
    runs alone, and once a writer waits new readers queue behind it, so
    a stream of reads cannot starve a write. Not reentrant. *)

type t

val create : unit -> t

(** [read t f] runs [f] with shared access; [write t f] alone. *)
val read : t -> (unit -> 'a) -> 'a

val write : t -> (unit -> 'a) -> 'a
