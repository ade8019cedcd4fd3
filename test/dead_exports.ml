(* Dead exports: the values a lib/ interface declares that no other
   compilation unit uses.

     dead_exports.exe ROOT

   reads the typed trees of the build context ROOT (after
   `dune build @check`). The .cmti files under ROOT/lib give the
   exports, nested module signatures included; the value identifiers of
   every .cmt under lib, bin, bench, perfbench, examples and test give
   the uses. An export is used when an identifier of another unit
   resolves to its declaration; a use by a test counts. A unit's own
   identifiers are skipped: they resolve to its implementation, whose
   declaration ids restart from 0 and so collide with its interface's.
   Prints each dead export and exits 1 if there is one. *)

module Uid = Shape.Uid

let users = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let rec files ext dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files ext path
           else if Filename.check_suffix name ext then [ path ]
           else [])

(* Every value a signature declares, as (dotted name, declaration). *)
let rec exports prefix (items : Typedtree.signature_item list) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix ^ vd.val_name.txt, vd.val_val.val_uid) ]
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _ } ->
        exports (prefix ^ name ^ ".") sg.sig_items
      | _ -> [])
    items

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let used = Uid.Tbl.create 4096 in
  let iterator unit =
    { Tast_iterator.default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ })
            when comp_unit <> unit ->
            Uid.Tbl.replace used uid ()
          | _ -> ());
          Tast_iterator.default_iterator.expr self e) }
  in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          let cmt = Cmt_format.read_cmt path in
          match cmt.cmt_annots with
          | Implementation str ->
            let it = iterator cmt.cmt_modname in
            it.structure it str
          | _ -> ())
        (files ".cmt" (Filename.concat root dir)))
    users;
  let declared = ref 0 in
  let dead =
    files ".cmti" (Filename.concat root "lib")
    |> List.concat_map (fun path ->
           let cmt = Cmt_format.read_cmt path in
           match (cmt.cmt_annots, cmt.cmt_sourcefile) with
           | Interface sg, Some source ->
             let modname =
               String.capitalize_ascii
                 (Filename.remove_extension (Filename.basename source))
             in
             let values = exports (modname ^ ".") sg.sig_items in
             declared := !declared + List.length values;
             List.filter_map
               (fun (name, uid) ->
                 if Uid.Tbl.mem used uid then None
                 else Some (Printf.sprintf "%s: %s" source name))
               values
           | _ -> [])
  in
  match dead with
  | [] -> Printf.printf "dead_exports: all %d lib/ exports used\n" !declared
  | _ ->
    List.iter print_endline dead;
    Printf.printf "dead_exports: %d of %d lib/ exports have no user\n"
      (List.length dead) !declared;
    exit 1
