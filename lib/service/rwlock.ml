type t = {
  m : Mutex.t;
  changed : Condition.t;
  mutable readers : int;
  mutable writing : bool;
  mutable waiting_writers : int;
}

let create () =
  { m = Mutex.create (); changed = Condition.create (); readers = 0;
    writing = false; waiting_writers = 0 }

let release t f =
  Mutex.lock t.m;
  f ();
  Condition.broadcast t.changed;
  Mutex.unlock t.m

let read t f =
  Mutex.lock t.m;
  while t.writing || t.waiting_writers > 0 do Condition.wait t.changed t.m done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.m;
  Fun.protect f ~finally:(fun () -> release t (fun () -> t.readers <- t.readers - 1))

let write t f =
  Mutex.lock t.m;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writing || t.readers > 0 do Condition.wait t.changed t.m done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writing <- true;
  Mutex.unlock t.m;
  Fun.protect f ~finally:(fun () -> release t (fun () -> t.writing <- false))
