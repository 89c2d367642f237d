//! Type mutators (§4.1: 6 of the paper's 118 target types), including the
//! paper's `StructToInt` (Clang #69213), `ReduceArrayDimension` (GCC
//! #111820) and `DecaySmallStruct` (GCC #111819).

use crate::common::mutator;
use metamut_lang::ast::*;
use metamut_lang::source::Span;
use metamut_muast::{collect, MutCtx};
use std::collections::HashSet;

mutator!(
    StructToInt,
    "StructToInt",
    "Replaces every occurrence of a selected struct type with int, collapsing an aggregate type into a scalar across the whole program.",
    Type
);

impl StructToInt {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Tags actually written as `struct <tag>` in the source.
        let tags: Vec<&str> = {
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for tag in ctx.sema().records.keys() {
                if !tag.starts_with("__anon")
                    && ctx.find_str_from(0, &format!("struct {tag}")).is_some()
                    && seen.insert(tag.as_str())
                {
                    out.push(tag.as_str());
                }
            }
            out.sort();
            out
        };
        let Some(tag) = ctx.rng().pick(&tags).copied() else {
            return false;
        };
        let needle = format!("struct {tag}");
        let mut pos = 0;
        let mut any = false;
        while let Some(at) = ctx.find_str_from(pos, &needle) {
            // Avoid partial identifier matches (`struct s2x`).
            let end = at + needle.len() as u32;
            let next = ctx.ast().source().as_bytes().get(end as usize).copied();
            let boundary = !matches!(next, Some(b) if b.is_ascii_alphanumeric() || b == b'_');
            if boundary {
                ctx.replace(Span::new(at, end), "int");
                any = true;
            }
            pos = end;
        }
        any
    }
}

mutator!(
    ReduceArrayDimension,
    "ReduceArrayDimension",
    "Simplifies a one-dimensional array variable into a scalar and updates its references, removing the subscript from every use.",
    Type
);

impl ReduceArrayDimension {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Rank-1 arrays of a base type with a known declarator bracket.
        let vars = collect::all_var_decls(ctx.ast());
        let mut spots = Vec::new();
        for v in &vars {
            let TySyn::Array {
                elem,
                size: Some(_),
            } = &v.ty
            else {
                continue;
            };
            if !matches!(**elem, TySyn::Base { .. }) {
                continue;
            }
            // The bracket range sits between the name and the initializer.
            let end = match &v.init {
                Some(i) => i.span(ctx.ast()).lo,
                None => v.span.hi,
            };
            let Some(open) = ctx.find_str_from(v.name_span.hi, "[") else {
                continue;
            };
            if open >= end {
                continue;
            }
            let Some(close) = ctx.find_str_from(open, "]") else {
                continue;
            };
            // Initialized arrays would need their initializer reshaped too.
            if v.init.is_some() {
                continue;
            }
            spots.push((v.name.as_str(), Span::new(open, close + 1)));
        }
        let Some(&(name, bracket)) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.remove(bracket);
        // Rewrite every subscript of this variable: `r[i]` → `r`.
        for e in collect::exprs_matching(ctx.ast(), |e| {
            matches!(&e.kind, ExprKind::Index { base, .. }
                if matches!(&ctx.ast()[*base].unparenthesized(ctx.ast()).kind, ExprKind::Ident(n) if n == name))
        }) {
            ctx.replace(e.span, name);
        }
        // Bare uses (e.g. `sizeof r`, passing `r` to functions) keep working
        // as scalars in our checker; nothing else to rewrite.
        true
    }
}

mutator!(
    IncreaseArraySize,
    "IncreaseArraySize",
    "Doubles the declared size of a randomly selected array, enlarging the object the compiler must lay out.",
    Type
);

impl IncreaseArraySize {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let mut spots = Vec::new();
        for v in &vars {
            if let TySyn::Array {
                size: Some(size), ..
            } = &v.ty
            {
                if let ExprKind::IntLit { value, .. } =
                    ctx.ast()[*size].unparenthesized(ctx.ast()).kind
                {
                    if value > 0 && value < 1 << 20 {
                        spots.push((ctx.ast()[*size].span, value * 2));
                    }
                }
            }
        }
        let Some(&(span, doubled)) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.replace(span, doubled.to_string());
        true
    }
}

mutator!(
    ChangeIntToLong,
    "ChangeIntToLong",
    "Widens a variable declared as plain int to long, changing its conversion rank everywhere it is used.",
    Type
);

impl ChangeIntToLong {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let spots: Vec<Span> = vars
            .iter()
            .filter(|v| ctx.source_text(v.specs_span).trim() == "int")
            .map(|v| v.specs_span)
            .collect();
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.replace(span, "long");
        true
    }
}

mutator!(
    ChangeSignedness,
    "ChangeSignedness",
    "Flips the signedness of an integer variable declaration, turning int into unsigned int and vice versa.",
    Type
);

impl ChangeSignedness {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let mut spots = Vec::new();
        for v in &vars {
            let text = ctx.source_text(v.specs_span).trim();
            match text {
                "int" | "long" | "short" | "char" => {
                    spots.push((v.specs_span, format!("unsigned {text}")));
                }
                "unsigned int" | "unsigned" => {
                    spots.push((v.specs_span, "int".to_string()));
                }
                "unsigned long" => {
                    spots.push((v.specs_span, "long".to_string()));
                }
                _ => {}
            }
        }
        let Some((span, new)) = ctx.rng().take(&mut spots) else {
            return false;
        };
        ctx.replace(span, new);
        true
    }
}

mutator!(
    IntroduceTypedef,
    "IntroduceTypedef",
    "Introduces a fresh typedef for int and reroutes one variable declaration through it.",
    Type
);

impl IntroduceTypedef {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let spots: Vec<Span> = vars
            .iter()
            .filter(|v| ctx.source_text(v.specs_span).trim() == "int")
            .map(|v| v.specs_span)
            .collect();
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let fresh = ctx.generate_unique_name("alias");
        ctx.insert_before(0, format!("typedef int {fresh};\n"));
        ctx.replace(span, fresh);
        true
    }
}

mutator!(
    DecaySmallStruct,
    "DecaySmallStruct",
    "Casts a small global object into a long long variable and changes all references into pointer arithmetic over the new variable.",
    Type
);

impl DecaySmallStruct {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Global scalar/record variables with a plain printable base type.
        let mut spots = Vec::new();
        for d in &ctx.ast().unit.decls {
            let ExternalDecl::Vars(g) = d else { continue };
            if g.vars.len() != 1 {
                continue;
            }
            let v = &g.vars[0];
            if v.init.is_some() || v.storage != Storage::None {
                continue;
            }
            let TySyn::Base { spec, .. } = &v.ty else {
                continue;
            };
            let printable = matches!(
                spec,
                TypeSpecifier::Struct(_)
                    | TypeSpecifier::ComplexDouble
                    | TypeSpecifier::ComplexFloat
                    | TypeSpecifier::Double
                    | TypeSpecifier::Int
            );
            if !printable {
                continue;
            }
            // Complete record check for struct tags.
            if let TypeSpecifier::Struct(tag) = spec {
                let complete = ctx
                    .sema()
                    .records
                    .get(tag)
                    .map(|r| r.fields.is_some() && r.size() <= 16)
                    .unwrap_or(false);
                if !complete {
                    continue;
                }
            }
            spots.push((g.span, v));
        }
        let Some(&(decl_span, v)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let combined = ctx.generate_unique_name("combinedVar");
        ctx.replace(decl_span, format!("long long {combined};"));
        let ty_text = ctx.format_as_decl(&v.ty, "");
        for u in collect::uses_of(ctx.ast(), &v.name) {
            ctx.replace(u.span, format!("(*({ty_text} *)((char *)&{combined} + 0))"));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
struct s2 { int a; int b; };
_Complex double cx;
int nums[6];
unsigned long total;
int use_struct(struct s2 *ptr) {
    return ptr->a + ptr->b;
}
int main(void) {
    struct s2 s;
    s.a = 1;
    s.b = 2;
    nums[3] = use_struct(&s);
    cx = 0;
    total = (unsigned long)nums[3];
    return nums[0];
}
"#;

    fn exercise(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..16 {
            if let MutationOutcome::Mutated(s) = mutate_source(m, SEED, seed).expect("driver ok") {
                assert_ne!(s, SEED);
                outs.push(s);
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn struct_to_int_rewrites_all() {
        let outs = exercise(&StructToInt);
        for s in &outs {
            assert!(!s.contains("struct s2"), "{s}");
            assert!(
                s.contains("int { int a; int b; };") || s.contains("int *ptr"),
                "{s}"
            );
        }
        // Like the paper's Clang #69213 mutant, the result usually does NOT
        // compile — the mutator's value is reaching front-end corners.
    }

    #[test]
    fn reduce_array_dimension() {
        let outs = exercise(&ReduceArrayDimension);
        let hit = outs
            .iter()
            .find(|s| s.contains("int nums;"))
            .expect("nums reduced");
        assert!(
            hit.contains("nums = use_struct(&s)") || hit.contains("nums ="),
            "{hit}"
        );
        compile_check(hit).unwrap_or_else(|e| panic!("reduced mutant must compile: {e}\n{hit}"));
    }

    #[test]
    fn increase_array_size() {
        let outs = exercise(&IncreaseArraySize);
        assert!(outs.iter().any(|s| s.contains("nums[12]")));
        for s in &outs {
            compile_check(s).unwrap();
        }
    }

    #[test]
    fn int_to_long() {
        let outs = exercise(&ChangeIntToLong);
        for s in &outs {
            compile_check(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
            assert!(s.contains("long "), "{s}");
        }
    }

    #[test]
    fn signedness_flip() {
        let outs = exercise(&ChangeSignedness);
        for s in &outs {
            compile_check(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        }
        assert!(outs.iter().any(|s| s.contains("unsigned int nums[6]")
            || s.contains("long total")
            || s.contains("unsigned int")));
    }

    #[test]
    fn typedef_introduced() {
        let outs = exercise(&IntroduceTypedef);
        for s in &outs {
            assert!(s.starts_with("typedef int alias_0;"), "{s}");
            compile_check(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        }
    }

    #[test]
    fn decay_small_struct() {
        let outs = exercise(&DecaySmallStruct);
        let cx_decayed = outs
            .iter()
            .find(|s| s.contains("long long combinedVar_0;") && !s.contains("_Complex double cx;"));
        let hit = cx_decayed.expect("cx decayed in some seed");
        assert!(
            hit.contains("(*(double _Complex *)((char *)&combinedVar_0 + 0)) = 0")
                || hit.contains("(*(int *)((char *)&combinedVar_0 + 0))"),
            "{hit}"
        );
        compile_check(hit).unwrap_or_else(|e| panic!("decayed mutant must compile: {e}\n{hit}"));
    }
}

mutator!(
    ShrinkIntToShort,
    "ShrinkIntToShort",
    "Narrows a variable declared as plain int to short, changing its promotion and overflow behavior everywhere it is used.",
    Type
);

impl ShrinkIntToShort {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let spots: Vec<Span> = vars
            .iter()
            .filter(|v| ctx.source_text(v.specs_span).trim() == "int")
            .map(|v| v.specs_span)
            .collect();
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.replace(span, "short");
        true
    }
}

mutator!(
    ConstifyPointee,
    "ConstifyPointee",
    "Adds a const qualifier to the pointee of a pointer declaration, making writes through it constraint violations.",
    Type
);

impl ConstifyPointee {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let spots: Vec<Span> = vars
            .iter()
            .filter(|v| v.ty.is_pointer() && !ctx.source_text(v.specs_span).contains("const"))
            .map(|v| v.specs_span)
            .collect();
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_before(span.lo, "const ");
        true
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int total = 0;
char *message;
int tally(int n) {
    int local = n * 2;
    total += local;
    return total;
}
int main(void) { return tally(3); }
"#;

    fn exercise(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..12 {
            if let MutationOutcome::Mutated(s) = mutate_source(m, SEED, seed).expect("driver ok") {
                assert_ne!(s, SEED);
                outs.push(s);
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn int_shrunk() {
        let outs = exercise(&ShrinkIntToShort);
        for s in &outs {
            metamut_lang::compile_check(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
            assert!(s.contains("short "));
        }
    }

    #[test]
    fn pointee_constified() {
        let outs = exercise(&ConstifyPointee);
        // `const char *message;` still compiles (no writes in the seed).
        assert!(outs.iter().any(|s| s.contains("const char *message")));
    }
}
