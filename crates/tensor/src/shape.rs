//! Tensor shapes and the 4D→2D matricization rule used by low-rank
//! compressors.

use std::fmt;

/// The shape of a [`Tensor`](crate::Tensor): an ordered list of dimension
/// sizes.
///
/// A scalar has an empty dimension list and one element.
///
/// # Example
///
/// ```
/// use gcs_tensor::Shape;
///
/// let s = Shape::new(vec![64, 3, 7, 7]);
/// assert_eq!(s.numel(), 64 * 3 * 7 * 7);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// The `(rows, cols)` a tensor of this shape is reshaped to before
    /// low-rank compression.
    ///
    /// PowerSGD and ATOMO view an `n`-dimensional gradient as a 2-D matrix:
    /// the first dimension becomes the rows and the remaining dimensions are
    /// flattened into the columns (the reshaping described in Section 2.1 of
    /// the paper for 4-D convolution kernels). Vectors (rank ≤ 1) are kept as
    /// a single row.
    ///
    /// # Example
    ///
    /// ```
    /// use gcs_tensor::Shape;
    ///
    /// // ResNet conv kernel: 512 output channels, 512x3x3 receptive field.
    /// assert_eq!(Shape::new(vec![512, 512, 3, 3]).matricized(), (512, 4608));
    /// // A bias vector stays a single-row matrix.
    /// assert_eq!(Shape::new(vec![512]).matricized(), (1, 512));
    /// ```
    pub fn matricized(&self) -> (usize, usize) {
        match self.dims.len() {
            0 => (1, 1),
            1 => (1, self.dims[0]),
            _ => (self.dims[0], self.dims[1..].iter().product()),
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::new(Vec::new()).numel(), 1);
        assert_eq!(Shape::new(Vec::new()).rank(), 0);
    }

    #[test]
    fn numel_multiplies_dims() {
        assert_eq!(Shape::new(vec![2, 3, 4]).numel(), 24);
    }

    #[test]
    fn matricized_flattens_trailing_dims() {
        assert_eq!(Shape::new(vec![64, 3, 7, 7]).matricized(), (64, 147));
        assert_eq!(Shape::new(vec![10, 20]).matricized(), (10, 20));
        assert_eq!(Shape::new(vec![7]).matricized(), (1, 7));
        assert_eq!(Shape::new(Vec::new()).matricized(), (1, 1));
    }

    #[test]
    fn display_is_x_separated() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::new(Vec::new()).to_string(), "[]");
    }

    #[test]
    fn conversions() {
        let s: Shape = [1usize, 2, 3].into();
        assert_eq!(s, Shape::new(vec![1, 2, 3]));
        let s: Shape = vec![4usize, 5].into();
        assert_eq!(s, Shape::new(vec![4, 5]));
        let s: Shape = [6usize][..].into();
        assert_eq!(s, Shape::new(vec![6]));
    }
}
