(** Registry backing [fn:doc]: maps URIs to document nodes.

    Queries in this reproduction never touch the file system; the
    benchmark and test harnesses register generated documents under the
    URIs the paper's queries use ([doc("curriculum.xml")],
    [doc("auction.xml")], …). A registered URI always returns the same
    node, preserving [doc] stability as required by XQuery.

    Each registry carries a {e generation counter}, bumped on every
    mutation of the visible document set ({!register}, {!patched},
    {!unregister}, {!clear}, and the file-system fallback of {!find}). Long-lived
    consumers — the [fixq serve] result cache in particular — key
    cached answers on the generation, so a document swap invalidates
    exactly the answers it could have changed. All operations are
    thread-safe (a per-registry mutex guards the table and counter). *)

(** Isolated registry instances let tests avoid cross-talk. *)
type t

val create : unit -> t

(** The process-wide default registry. *)
val default : t

(** [register uri doc] binds [uri] to [doc] after
    {!Node.ensure_contiguous} (as does the file-system fallback of
    {!find}), so a registered node's offset from its root's id is its
    preorder rank, an identity portable across processes. *)
val register : ?registry:t -> string -> Node.t -> unit

(** [patched uri delta] records an in-place edit ({!Patch.apply}
    returned [delta]) of the document registered under [uri]: bumps its
    stamp and the generation, as re-registering would, and maintains
    its cached synopsis in place ({!Synopsis.patch}), so the next
    {!synopsis} is a hit instead of an [O(|doc|)] rebuild. No-op for an
    unregistered URI. *)
val patched : ?registry:t -> string -> Patch.delta -> unit

(** Remove a URI from the registry. Bumps the generation only when the
    URI was actually registered. *)
val unregister : ?registry:t -> string -> unit

(** [find uri] returns the registered document. Falls back to parsing
    the file at [uri] if nothing is registered and the file exists. *)
val find : ?registry:t -> string -> Node.t option

(** Number of visible-document-set mutations so far; starts at [0] for
    a fresh registry. *)
val generation : ?registry:t -> unit -> int

(** [doc_generation uri] — per-document generation stamp: how many times
    {e this} URI's binding or tree changed ({!register}, {!patched},
    {!unregister}, {!clear}, fallback loads). [0] for a URI never seen. Stamps persist
    across {!unregister}, so a re-registered URI never repeats one.
    Fine-grained consumers (the result-cache footprint) key on these
    instead of the global {!generation}, so an unrelated [load-doc] no
    longer invalidates everything. *)
val doc_generation : ?registry:t -> string -> int

(** [track f] runs [f ()] while recording every URI that {!find}
    resolves in this registry — from any thread, which over-approximates
    the footprint under concurrency and is therefore safe (it can only
    over-invalidate). Returns [f]'s result together with the sorted
    [(uri, doc_generation uri)] footprint observed at completion. *)
val track : ?registry:t -> (unit -> 'a) -> 'a * (string * int) list

(** [synopsis uri] — the structural synopsis of the registered
    document ({!Synopsis}), built lazily on first use and cached
    against the URI's {!doc_generation}: any re-registration (swap,
    reload) invalidates it automatically, and {!patched} maintains it.
    [None] when the URI resolves to nothing. *)
val synopsis : ?registry:t -> string -> Synopsis.t option

(** Registered URIs, sorted. *)
val uris : ?registry:t -> unit -> string list

(** Every per-URI generation stamp, sorted — including stamps of
    currently {e unloaded} URIs, which must survive a persistence
    round-trip so a re-registered URI still never repeats one. *)
val generations : ?registry:t -> unit -> (string * int) list

(** [restore ~gens ~generation ()] reinstates persisted generation
    stamps after a recovery reload: per-URI stamps are overwritten with
    the recorded values and the global counter is raised to at least
    [generation] (never lowered — the reload itself already bumped it).
    Restoring stamps lets result-cache footprints recorded before a
    crash validate against the rebuilt registry. *)
val restore :
  ?registry:t -> gens:(string * int) list -> generation:int -> unit -> unit

val clear : ?registry:t -> unit -> unit
