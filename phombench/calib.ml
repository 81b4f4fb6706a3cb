(* The machine's speed, measured beside the workload.

   The host the benchmark runs on is shared, and its speed changes by a
   third or more over minutes, for every program on it alike. So the timed
   run measures a fixed piece of reference work between its blocks, and
   scales its timings to a machine on which that work takes
   [reference_ms]: about what it takes on a two-core x86 VM in its faster
   phases, so scaled figures read like measured ones. The work is OCaml of
   the kinds the daemon does (hashing, allocation, sorting, pointer
   chasing) in code of the benchmark's own that nothing in the repository
   runs, so a change to the program never moves it. *)

let reference_ms = 2.5

let kernel () =
  let n = 2048 in
  let h = Hashtbl.create n in
  let a = Array.init n (fun i -> (i * 7919) land 65535) in
  Array.iteri (fun i x -> Hashtbl.replace h x i) a;
  Array.sort compare a;
  let l = ref [] in
  Array.iter (fun x -> l := (x + Hashtbl.find h x) :: !l) a;
  List.fold_left ( + ) 0 !l

(* repeats of [kernel] that make one reference measurement *)
let repeats = 4

(* seconds one run of the reference work takes now: the fastest of three
   measurements, so a preemption inside one does not count *)
let seconds () =
  let once () =
    let t = Unix.gettimeofday () in
    for _ = 1 to repeats do
      ignore (Sys.opaque_identity (kernel ()))
    done;
    Unix.gettimeofday () -. t
  in
  List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))

(* the factor that scales a time measured now to the reference machine *)
let scale ref_seconds = reference_ms /. 1000. /. ref_seconds
