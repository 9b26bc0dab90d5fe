//===- support/SmallVector.h - Vector with inline storage -------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SmallVector<T, N>: a vector of trivially copyable elements whose first N
/// live inside the object, so a short-lived buffer on the stack allocates
/// nothing until it outgrows N. Past N it moves to one heap array, doubling
/// as it grows. Only the operations the plan builders and the expression
/// factory use are here.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SUPPORT_SMALLVECTOR_H
#define SEMCOMM_SUPPORT_SMALLVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <type_traits>

namespace semcomm {

template <typename T, size_t N> class SmallVector {
  static_assert(std::is_trivially_copyable<T>::value,
                "SmallVector copies its elements bytewise");
  static_assert(N > 0, "SmallVector needs inline capacity");

public:
  SmallVector() = default;
  SmallVector(std::initializer_list<T> List) {
    append(List.begin(), List.end());
  }
  SmallVector(const SmallVector &O) { append(O.begin(), O.end()); }
  SmallVector &operator=(const SmallVector &O) {
    if (this != &O) {
      Size = 0;
      append(O.begin(), O.end());
    }
    return *this;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T *data() const { return Data; }
  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  T &operator[](size_t I) {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }

  // Elements are taken by value and ranges must come from elsewhere: a
  // growth frees the storage a reference into this vector would read.
  void push_back(T V) {
    if (Size == Cap)
      grow(Size + 1);
    Data[Size++] = V;
  }
  void append(const T *First, const T *Last) {
    auto Add = static_cast<size_t>(Last - First);
    if (Size + Add > Cap)
      grow(Size + Add);
    std::copy(First, Last, Data + Size);
    Size += Add;
  }
  /// Inserts \p V before \p Pos; returns the inserted element.
  T *insert(T *Pos, T V) {
    auto I = static_cast<size_t>(Pos - Data);
    assert(I <= Size && "SmallVector insert position out of range");
    if (Size == Cap)
      grow(Size + 1);
    std::copy_backward(Data + I, Data + Size, Data + Size + 1);
    Data[I] = V;
    ++Size;
    return Data + I;
  }
  /// Removes the element at \p Pos; returns the element after it.
  T *erase(T *Pos) {
    assert(Pos >= Data && Pos < Data + Size &&
           "SmallVector erase position out of range");
    std::copy(Pos + 1, Data + Size, Pos);
    --Size;
    return Pos;
  }

private:
  void grow(size_t MinCap) {
    size_t NewCap = std::max(MinCap, 2 * Cap);
    std::unique_ptr<T[]> New(new T[NewCap]);
    std::copy(Data, Data + Size, New.get());
    Heap = std::move(New);
    Data = Heap.get();
    Cap = NewCap;
  }

  T Inline[N] = {};
  T *Data = Inline;
  size_t Size = 0;
  size_t Cap = N;
  std::unique_ptr<T[]> Heap;
};

} // namespace semcomm

#endif // SEMCOMM_SUPPORT_SMALLVECTOR_H
