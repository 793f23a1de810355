//! [`PacketIds`]: the packet-id list of [Propose], [Request] and [Serve]
//! messages, and of the requests a node waits on.
//!
//! [Propose]: crate::message::GossipMessage::Propose
//! [Request]: crate::message::GossipMessage::Request
//! [Serve]: crate::message::GossipMessage::Serve

use heap_streaming::packet::PacketId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How many ids a [`PacketIds`] holds inline before it spills to a shared
/// buffer.
///
/// 13 is what fits the 40-byte message: measured on the paper's gossip
/// workloads, it covers ≥ 99 % of Requests and Serves and two thirds or more
/// of Proposes.
pub const INLINE_IDS: usize = 13;

/// An ordered list of packet ids that a message carries: inline when short,
/// in a reference-counted buffer otherwise, so cloning it for each gossip
/// target copies at most 32 bytes and never allocates.
///
/// Ids keep the order they were given in, duplicates included: receivers
/// see exactly the list the sender built. A list is inline when it has at
/// most [`INLINE_IDS`] ids, every id is below 2³² and its span (largest
/// minus smallest id) is below 2¹⁶; every constructor picks that form when
/// it applies, so only a list that does not fit pays one allocation, when
/// it is built.
///
/// # Examples
///
/// ```
/// use heap_gossip::PacketIds;
/// use heap_streaming::PacketId;
///
/// let ids: PacketIds = [7, 3, 9].map(PacketId::new).into_iter().collect();
/// assert!(ids.is_inline());
/// assert_eq!(ids.to_vec(), [7, 3, 9].map(PacketId::new));
/// // Fourteen ids no longer fit inline; the clone shares the buffer.
/// let long: PacketIds = (0..14).map(PacketId::new).collect();
/// assert!(!long.is_inline());
/// assert_eq!(long.clone(), long);
/// ```
#[derive(Clone, Serialize, Deserialize)]
#[serde(from = "Vec<PacketId>", into = "Vec<PacketId>")]
pub struct PacketIds(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` ids, the `i`-th of which is `base + offsets[i]`; the unused
    /// offsets are zero.
    Inline {
        base: u32,
        len: u8,
        offsets: [u16; INLINE_IDS],
    },
    /// Any other list.
    Shared(Arc<[PacketId]>),
}

// Thirteen inline ids are what keeps a message at 40 bytes.
const _: () = assert!(std::mem::size_of::<PacketIds>() == 32);

impl PacketIds {
    /// Number of ids.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Shared(ids) => ids.len(),
        }
    }

    /// Whether the list holds no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ids are held inline (see the type's documentation for
    /// when they are).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The ids, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Repr::Inline { base, len, offsets } => IterRepr::Inline {
                base: u64::from(*base),
                offsets: offsets[..usize::from(*len)].iter(),
            },
            Repr::Shared(ids) => IterRepr::Shared(ids.iter()),
        })
    }

    /// The ids, in order, in a new vector.
    pub fn to_vec(&self) -> Vec<PacketId> {
        self.iter().collect()
    }

    /// The ids of an exactly sized iterator: inline if they fit, else in one
    /// new shared buffer.
    fn from_exact<I>(ids: I) -> Self
    where
        I: ExactSizeIterator<Item = PacketId> + Clone,
    {
        let mut list = Inline::default();
        if ids.clone().all(|id| list.push(id)) {
            list.into_ids()
        } else {
            PacketIds(Repr::Shared(ids.collect()))
        }
    }

    /// The ids with sequence numbers `seqs`, in order.
    pub(crate) fn from_seqs(seqs: &[u32]) -> Self {
        Self::from_exact(seqs.iter().map(|&seq| PacketId::new(u64::from(seq))))
    }
}

/// An inline list under construction: `base` is the smallest id so far.
#[derive(Default)]
struct Inline {
    base: u32,
    len: u8,
    offsets: [u16; INLINE_IDS],
}

impl Inline {
    /// Appends `id`, or returns `false` (and changes nothing) when the list
    /// would no longer fit inline.
    fn push(&mut self, id: PacketId) -> bool {
        let len = usize::from(self.len);
        let Ok(id) = u32::try_from(id.seq()) else {
            return false;
        };
        if len == INLINE_IDS {
            return false;
        }
        if len == 0 {
            self.base = id;
        } else if id < self.base {
            // The new id becomes the base: every held offset grows by the
            // difference, and the largest must still fit.
            let shift = self.base - id;
            let widest = self.offsets[..len].iter().max().copied().unwrap_or(0);
            if u64::from(widest) + u64::from(shift) > u64::from(u16::MAX) {
                return false;
            }
            for offset in &mut self.offsets[..len] {
                *offset += shift as u16;
            }
            self.base = id;
        }
        let Ok(offset) = u16::try_from(id - self.base) else {
            return false;
        };
        self.offsets[len] = offset;
        self.len += 1;
        true
    }

    fn into_ids(self) -> PacketIds {
        PacketIds(Repr::Inline {
            base: self.base,
            len: self.len,
            offsets: self.offsets,
        })
    }
}

impl FromIterator<PacketId> for PacketIds {
    /// Collects inline while the ids fit; the first id that does not moves
    /// the list to the heap, once.
    fn from_iter<I: IntoIterator<Item = PacketId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut list = Inline::default();
        let Some(overflow) = iter.by_ref().find(|&id| !list.push(id)) else {
            return list.into_ids();
        };
        let held = list.into_ids();
        let mut spilled = Vec::with_capacity(held.len() + 1 + iter.size_hint().0);
        spilled.extend(held.iter());
        spilled.push(overflow);
        spilled.extend(iter);
        PacketIds(Repr::Shared(spilled.into()))
    }
}

impl From<&[PacketId]> for PacketIds {
    /// Copies the ids: inline if they fit, else into one new shared buffer.
    fn from(ids: &[PacketId]) -> Self {
        Self::from_exact(ids.iter().copied())
    }
}

impl From<Vec<PacketId>> for PacketIds {
    fn from(ids: Vec<PacketId>) -> Self {
        Self::from(ids.as_slice())
    }
}

impl From<PacketIds> for Vec<PacketId> {
    fn from(ids: PacketIds) -> Self {
        ids.to_vec()
    }
}

impl PartialEq for PacketIds {
    /// Equal when they hold the same ids in the same order.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PacketIds {}

impl fmt::Debug for PacketIds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a PacketIds {
    type Item = PacketId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the ids of a [`PacketIds`], in order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    Inline {
        base: u64,
        offsets: std::slice::Iter<'a, u16>,
    },
    Shared(std::slice::Iter<'a, PacketId>),
}

impl Iterator for Iter<'_> {
    type Item = PacketId;

    #[inline]
    fn next(&mut self) -> Option<PacketId> {
        match &mut self.0 {
            IterRepr::Inline { base, offsets } => offsets
                .next()
                .map(|&offset| PacketId::new(*base + u64::from(offset))),
            IterRepr::Shared(ids) => ids.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            IterRepr::Inline { offsets, .. } => offsets.len(),
            IterRepr::Shared(ids) => ids.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter<'_> {}
