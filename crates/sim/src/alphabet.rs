//! Finite labeled vocabularies: the state, event and action sets of the
//! coherence machines, and the key space of [`CoverageGrid`](crate::CoverageGrid).

/// A finite, labeled vocabulary: the state, event, or action set of one
/// machine. Implemented via the [`alphabet!`](crate::alphabet) macro.
pub trait Alphabet: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Every member, in declaration order.
    const ALL: &'static [Self];

    /// Stable display label (used in dumps, coverage keys, golden files).
    fn label(self) -> &'static str;

    /// Dense index into [`Alphabet::ALL`].
    fn index(self) -> usize;
}

/// Whether no two members of `A` share a label. Labels key coverage and
/// reports, so two members with one label would merge silently there.
pub(crate) fn labels_distinct<A: Alphabet>() -> bool {
    let labels = A::ALL.iter().map(|a| a.label());
    labels
        .enumerate()
        .all(|(i, label)| A::ALL[..i].iter().all(|a| a.label() != label))
}

/// Declares a fieldless enum implementing [`Alphabet`].
///
/// Variants label themselves with their own name unless an explicit label
/// is given (useful for labels that are not valid identifiers):
///
/// ```rust
/// xg_sim::alphabet! {
///     /// Directory states.
///     pub enum DirState {
///         /// Memory owns the block.
///         Omem = "O_mem",
///         Owned,
///     }
/// }
/// assert_eq!(xg_sim::Alphabet::label(DirState::Omem), "O_mem");
/// assert_eq!(xg_sim::Alphabet::label(DirState::Owned), "Owned");
/// ```
#[macro_export]
macro_rules! alphabet {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vmeta:meta])*
                $Var:ident $(= $label:literal)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $Var
            ),+
        }

        impl $crate::Alphabet for $Name {
            const ALL: &'static [Self] = &[$(Self::$Var),+];

            fn label(self) -> &'static str {
                match self {
                    $(Self::$Var => $crate::alphabet_label!($Var $(, $label)?)),+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Helper for [`alphabet!`]: picks the explicit label or the variant name.
#[doc(hidden)]
#[macro_export]
macro_rules! alphabet_label {
    ($Var:ident) => {
        stringify!($Var)
    };
    ($Var:ident, $label:literal) => {
        $label
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::alphabet! { enum Fine { A, B = "b", C = "A_" } }
    crate::alphabet! { enum Clash { A, B = "A" } }

    #[test]
    fn labels_default_to_the_variant_name_and_index_declaration_order() {
        assert_eq!(Fine::ALL, [Fine::A, Fine::B, Fine::C]);
        let labels: Vec<_> = Fine::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["A", "b", "A_"]);
        let indices: Vec<_> = Fine::ALL.iter().map(|a| a.index()).collect();
        assert_eq!(indices, [0, 1, 2]);
    }

    #[test]
    fn a_shared_label_is_detected() {
        assert!(labels_distinct::<Fine>());
        assert!(!labels_distinct::<Clash>());
    }
}
