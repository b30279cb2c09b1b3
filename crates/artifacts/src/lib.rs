#![warn(missing_docs)]

//! File-format substrates the parsing phase dispatches on (paper §IV-B).
//!
//! CrawlerBox scans *every* part of a reported message. Depending on its
//! content type that means: rendering images and running OCR + QR detection
//! over them, extracting embedded and text-based URLs from PDFs (plus
//! screenshotting each page), unpacking ZIP archives, and sniffing
//! `application/octet-stream` blobs by magic numbers. This crate provides
//! all of those formats from scratch:
//!
//! * [`bitmap`] — RGB raster images with a built-in 5×7 bitmap font,
//!   so text (and URLs) can be *drawn into* images…
//! * [`ocr`] — …and recovered back out by template matching, closing the
//!   loop that real OCR libraries close in the paper's pipeline.
//! * [`inkmask`] — word-packed binarization masks; the chunked-`u64`
//!   kernels OCR and QR detection scan 64 pixels at a time.
//! * [`qrimage`] — rendering [`cb_qr::QrMatrix`] symbols into bitmaps and
//!   detecting/sampling them back (upright, uniform-scale detector).
//! * [`zip`] — a store-only ZIP reader/writer with real local-file headers,
//!   central directory and CRC-32.
//! * [`pdf`] — PDF-lite: pages with text operators and `/Annots` URI link
//!   annotations, serializer + parser + page rasterizer.
//! * [`magic`] — file-signature sniffing, including HTA detection (the
//!   paper's five ZIP→HTA download chains).
//! * [`fingerprint`] — 128-bit content hashes: blob addresses, record
//!   content hashes and the pipeline's memoization keys.

pub mod bitmap;
pub mod fingerprint;
pub mod font;
pub mod inkmask;
pub mod magic;
pub mod ocr;
pub mod pdf;
pub mod qrimage;
pub mod zip;

pub use bitmap::{Bitmap, Rgb};
pub use inkmask::InkMask;
pub use magic::FileKind;
pub use pdf::PdfDocument;
pub use zip::{ZipArchive, ZipEntry};
