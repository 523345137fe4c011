//! Sequential stand-in for `rayon`: `par_iter()` is the slice's ordinary
//! iterator, so the benchmark measures the program and not a scheduler.

pub mod prelude {
    pub trait IntoParallelRefIterator<'data> {
        type Iter: Iterator;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: 'data> IntoParallelRefIterator<'data> for [T] {
        type Iter = std::slice::Iter<'data, T>;
        fn par_iter(&'data self) -> Self::Iter {
            self.iter()
        }
    }

    impl<'data, T: 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Iter = std::slice::Iter<'data, T>;
        fn par_iter(&'data self) -> Self::Iter {
            self.iter()
        }
    }
}
