(** The server's document store: a {!Fixq_xdm.Doc_registry.t} plus the
    loading front ends the protocol's [load-doc] op needs (inline XML,
    file system, or one of the benchmark workload generators).

    Versioning itself lives in the registry — every mutation bumps its
    generation counter — so this module is mostly a convenience veneer;
    what it adds is uniform error reporting ({!Error} instead of four
    different exceptions) and the generator dispatch. *)

type t

exception Error of string

val create : ?registry:Fixq_xdm.Doc_registry.t -> unit -> t
val registry : t -> Fixq_xdm.Doc_registry.t

(** Current registry generation — the result cache's version stamp. *)
val generation : t -> int

(** Parse [xml] and register it under [uri]. *)
val load_xml : t -> uri:string -> string -> unit

(** Read and parse the file at [path], register under [uri]. *)
val load_file : t -> uri:string -> string -> unit

(** The raw bytes at [path] ({!Error} on failure; subject to the
    ["store.read"] chaos point) — the WAL materializes file-sourced
    [load-doc]s with these bytes so replay is independent of the file
    system. *)
val read_file : string -> string

(** Generate a benchmark document and register it under [uri]. [kind]
    is one of ["xmark"], ["curriculum"], ["play"], ["hospital"]; [size]
    is the scale factor (xmark) or element count (curriculum/hospital,
    truncated to int). *)
val load_generated :
  t -> uri:string -> kind:string -> size:float -> seed:int -> unit

(** Drop a document. No error if the URI was not registered (the
    generation is only bumped when something was actually removed). *)
val unload : t -> string -> unit

val uris : t -> string list

(** Per-document generation stamp
    ({!Fixq_xdm.Doc_registry.doc_generation}). *)
val doc_generation : t -> string -> int

(** Lazily built, patch-maintained structural synopsis of a loaded
    document ({!Fixq_xdm.Doc_registry.synopsis}). *)
val synopsis : t -> string -> Fixq_xdm.Synopsis.t option

(** Footprint-recording wrapper ({!Fixq_xdm.Doc_registry.track}): run
    [f] and report which documents it read, at which generations. *)
val track : t -> (unit -> 'a) -> 'a * (string * int) list

(** [patch t ~uri op] edits the document registered under [uri] in
    place ({!Fixq_xdm.Patch.apply}), bumps its per-doc generation and
    maintains its synopsis, returning the structured delta for
    incremental maintenance. Readers must not run concurrently: the
    server holds its document lock exclusively around this call. Raises {!Error} when nothing is loaded
    under [uri] or the edit is invalid. Subject to the ["store.patch"]
    chaos point, which fires {e before} any mutation so a killed worker
    can be replayed to a consistent state. *)
val patch : t -> uri:string -> Fixq_xdm.Patch.op -> Fixq_xdm.Patch.delta
