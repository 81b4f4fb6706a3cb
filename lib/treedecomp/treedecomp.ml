module D = Phom_graph.Digraph

type t = {
  bags : int array array;
  parent : int array;
  order : int array;
  width : int;
}

type kind = Leaf | Introduce of int | Forget of int | Join

type nice = {
  nbags : int array array;
  nkind : kind array;
  nchildren : int array array;
  root : int;
  nwidth : int;
}

(* ---------------------------------------------------------------- *)
(* Greedy elimination                                               *)
(* ---------------------------------------------------------------- *)

let compute g =
  let n = D.n g in
  (* underlying undirected adjacency; self-loops never affect width *)
  let adj = Array.init n (fun _ -> Hashtbl.create 8) in
  let connect u v =
    if u <> v && not (Hashtbl.mem adj.(u) v) then begin
      Hashtbl.add adj.(u) v ();
      Hashtbl.add adj.(v) u ()
    end
  in
  for v = 0 to n - 1 do
    Array.iter (fun w -> connect v w) (D.succ g v)
  done;
  let alive = Array.make n true in
  let neighbours v =
    List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) adj.(v) [])
  in
  let order = Array.make n (-1) in
  let bags = Array.make n [||] in
  for i = 0 to n - 1 do
    (* minimum degree, ties towards the smallest id: deterministic *)
    let best = ref (-1) and best_degree = ref max_int in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let d = Hashtbl.length adj.(v) in
        if d < !best_degree then begin
          best := v;
          best_degree := d
        end
      end
    done;
    let v = !best in
    let ns = neighbours v in
    order.(i) <- v;
    bags.(i) <- Array.of_list (List.sort compare (v :: ns));
    (* eliminate: clique the neighbourhood, then drop [v] *)
    let rec clique = function
      | [] -> ()
      | a :: rest ->
          List.iter (fun b -> connect a b) rest;
          clique rest
    in
    clique ns;
    List.iter (fun w -> Hashtbl.remove adj.(w) v) ns;
    Hashtbl.reset adj.(v);
    alive.(v) <- false
  done;
  (* bag [i] hangs off the bag of the earliest-eliminated other member;
     bags with no later members root their component *)
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    let p = ref max_int in
    Array.iter (fun w -> if w <> order.(i) then p := min !p pos.(w)) bags.(i);
    if !p < max_int then parent.(i) <- !p
  done;
  let width = Array.fold_left (fun acc b -> max acc (Array.length b - 1)) (-1) bags in
  { bags; parent; order; width }

let width g = (compute g).width

(* ---------------------------------------------------------------- *)
(* Nice form                                                        *)
(* ---------------------------------------------------------------- *)

(* sorted-array set helpers; bags stay sorted ascending throughout *)

let arr_mem x a =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = x

let arr_add x a =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < x then begin
      out.(!j) <- a.(i);
      incr j
    end
  done;
  out.(!j) <- x;
  for i = !j to n - 1 do
    out.(i + 1) <- a.(i)
  done;
  out

let arr_remove x a =
  Array.of_list (List.filter (fun y -> y <> x) (Array.to_list a))

let arr_diff a b = Array.to_list a |> List.filter (fun x -> not (arr_mem x b))

let nice (td : t) =
  let n = Array.length td.bags in
  let children = Array.make n [] in
  for i = 0 to n - 1 do
    if td.parent.(i) >= 0 then
      children.(td.parent.(i)) <- i :: children.(td.parent.(i))
  done;
  (* nodes accumulate children-before-parent, so ids are already a
     bottom-up order when the list is reversed at the end *)
  let acc = ref [] and next = ref 0 in
  let push bag kind kids =
    let id = !next in
    incr next;
    acc := (bag, kind, kids) :: !acc;
    id
  in
  (* chain single-child nodes until bag [from] becomes bag [target]:
     forget the extras, then introduce the missing *)
  let retarget id from target =
    let id = ref id and bag = ref from in
    List.iter
      (fun v ->
        bag := arr_remove v !bag;
        id := push !bag (Forget v) [| !id |])
      (arr_diff from target);
    List.iter
      (fun v ->
        bag := arr_add v !bag;
        id := push !bag (Introduce v) [| !id |])
      (arr_diff target from);
    !id
  in
  let rec build i =
    let bag = td.bags.(i) in
    match List.sort compare children.(i) with
    | [] ->
        let leaf = push [||] Leaf [||] in
        retarget leaf [||] bag
    | kids ->
        let tops =
          List.map (fun c -> retarget (build c) td.bags.(c) bag) kids
        in
        List.fold_left
          (fun a b -> push bag Join [| a; b |])
          (List.hd tops) (List.tl tops)
  in
  let roots = ref [] in
  for i = 0 to n - 1 do
    if td.parent.(i) < 0 then
      roots := retarget (build i) td.bags.(i) [||] :: !roots
  done;
  let root =
    match List.rev !roots with
    | [] -> push [||] Leaf [||]
    | r :: rest -> List.fold_left (fun a b -> push [||] Join [| a; b |]) r rest
  in
  let nodes = Array.of_list (List.rev !acc) in
  {
    nbags = Array.map (fun (b, _, _) -> b) nodes;
    nkind = Array.map (fun (_, k, _) -> k) nodes;
    nchildren = Array.map (fun (_, _, c) -> c) nodes;
    root;
    nwidth = td.width;
  }

(* ---------------------------------------------------------------- *)
(* Validity checks                                                  *)
(* ---------------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* decomposition validity over an arbitrary rooted forest of bags *)
let check_bags g bags parent =
  let n = D.n g in
  let m = Array.length bags in
  let holds v i = arr_mem v bags.(i) in
  let* () =
    (* every vertex occurs, and its occurrences form one connected
       subtree: exactly one occurrence whose parent lacks the vertex *)
    let rec vertices v =
      if v >= n then Ok ()
      else begin
        let occurs = ref 0 and tops = ref 0 in
        for i = 0 to m - 1 do
          if holds v i then begin
            incr occurs;
            if parent.(i) < 0 || not (holds v parent.(i)) then incr tops
          end
        done;
        if !occurs = 0 then Error (Printf.sprintf "vertex %d in no bag" v)
        else if !tops <> 1 then
          Error (Printf.sprintf "vertex %d occurrences disconnected" v)
        else vertices (v + 1)
      end
    in
    vertices 0
  in
  (* every edge (directions ignored) inside some bag *)
  let covered u v =
    let ok = ref false in
    for i = 0 to m - 1 do
      if holds u i && holds v i then ok := true
    done;
    !ok
  in
  let rec edges v =
    if v >= n then Ok ()
    else
      match
        Array.find_opt (fun w -> w <> v && not (covered v w)) (D.succ g v)
      with
      | Some w -> Error (Printf.sprintf "edge %d->%d covered by no bag" v w)
      | None -> edges (v + 1)
  in
  edges 0

let check g td =
  if D.n g = 0 then Ok () else check_bags g td.bags td.parent

let check_nice g (nt : nice) =
  let m = Array.length nt.nbags in
  let* () =
    if nt.root <> m - 1 then Error "root is not the last node"
    else if Array.length nt.nbags.(nt.root) <> 0 then
      Error "root bag not empty"
    else Ok ()
  in
  let rec grammar i =
    if i >= m then Ok ()
    else
      let bag = nt.nbags.(i) and kids = nt.nchildren.(i) in
      let bad fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "node %d: %s" i s)) fmt in
      let* () =
        if Array.exists (fun c -> c >= i) kids then bad "child id not below parent"
        else
          match (nt.nkind.(i), kids) with
          | Leaf, [||] ->
              if bag = [||] then Ok () else bad "leaf bag not empty"
          | Introduce v, [| c |] ->
              if arr_mem v nt.nbags.(c) then bad "introduced vertex already present"
              else if bag <> arr_add v nt.nbags.(c) then bad "introduce bag mismatch"
              else Ok ()
          | Forget v, [| c |] ->
              if not (arr_mem v nt.nbags.(c)) then bad "forgotten vertex absent"
              else if bag <> arr_remove v nt.nbags.(c) then bad "forget bag mismatch"
              else Ok ()
          | Join, [| a; b |] ->
              if bag = nt.nbags.(a) && bag = nt.nbags.(b) then Ok ()
              else bad "join bags differ"
          | _ -> bad "kind/arity mismatch"
      in
      grammar (i + 1)
  in
  let* () = grammar 0 in
  if D.n g = 0 then Ok ()
  else begin
    (* same decomposition conditions, over the nice tree itself *)
    let parent = Array.make m (-1) in
    Array.iteri (fun i kids -> Array.iter (fun c -> parent.(c) <- i) kids) nt.nchildren;
    check_bags g nt.nbags parent
  end
