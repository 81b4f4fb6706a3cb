let bits_per_word = 63

type t = { len : int; data : int array }

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; data = Array.make (max 1 (words_for len)) 0 }

let length s = s.len

let check s i =
  if i < 0 || i >= s.len then invalid_arg "Bitset: index out of bounds"

let mem s i =
  check s i;
  s.data.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  check s i;
  let w = i / bits_per_word in
  s.data.(w) <- s.data.(w) lor (1 lsl (i mod bits_per_word))

let remove s i =
  check s i;
  let w = i / bits_per_word in
  s.data.(w) <- s.data.(w) land lnot (1 lsl (i mod bits_per_word))

let copy s = { len = s.len; data = Array.copy s.data }
let clear s = Array.fill s.data 0 (Array.length s.data) 0

let same_universe a b op =
  if a.len <> b.len then invalid_arg ("Bitset." ^ op ^ ": universe mismatch")

let union_into ~into s =
  same_universe into s "union_into";
  for w = 0 to Array.length into.data - 1 do
    into.data.(w) <- into.data.(w) lor s.data.(w)
  done

let inter_into ~into s =
  same_universe into s "inter_into";
  for w = 0 to Array.length into.data - 1 do
    into.data.(w) <- into.data.(w) land s.data.(w)
  done

let diff_into ~into s =
  same_universe into s "diff_into";
  for w = 0 to Array.length into.data - 1 do
    into.data.(w) <- into.data.(w) land lnot s.data.(w)
  done

let is_empty s = Array.for_all (fun w -> w = 0) s.data

let inter a b =
  same_universe a b "inter";
  let data = Array.make (Array.length a.data) 0 in
  for w = 0 to Array.length data - 1 do
    data.(w) <- a.data.(w) land b.data.(w)
  done;
  { len = a.len; data }

(* a loop: [Array.blit] is a C call, dear for a set of a word or two *)
let copy_into ~into s =
  same_universe into s "copy_into";
  for w = 0 to Array.length s.data - 1 do
    into.data.(w) <- s.data.(w)
  done

let disjoint a b =
  same_universe a b "disjoint";
  let n = Array.length a.data in
  let rec go w = w >= n || (a.data.(w) land b.data.(w) = 0 && go (w + 1)) in
  go 0

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.data

let inter_count a b =
  same_universe a b "inter_count";
  let acc = ref 0 in
  for w = 0 to Array.length a.data - 1 do
    acc := !acc + popcount (a.data.(w) land b.data.(w))
  done;
  !acc

let equal a b = a.len = b.len && a.data = b.data

let subset a b =
  same_universe a b "subset";
  let ok = ref true in
  for w = 0 to Array.length a.data - 1 do
    if a.data.(w) land lnot b.data.(w) <> 0 then ok := false
  done;
  !ok

let iter f s =
  for w = 0 to Array.length s.data - 1 do
    let word = ref s.data.(w) and i = ref (w * bits_per_word) in
    while !word <> 0 do
      if !word land 1 <> 0 then f !i;
      word := !word lsr 1;
      incr i
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list len xs =
  let s = create len in
  List.iter (add s) xs;
  s

let full len =
  let s = create len in
  for i = 0 to len - 1 do
    add s i
  done;
  s

let choose s =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (to_list s)
